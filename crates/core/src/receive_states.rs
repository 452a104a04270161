//! The scripted-peer table: every receive state of the protocol, fed every
//! frame it does not accept (test-only; nothing here is product code).
//!
//! The paper's algorithm is a fixed conversation, so the master, a worker,
//! a resident worker and a worker process each sit in one of a handful of
//! receive states, and each state takes a few message kinds. The table in
//! `tests::receive_states` lists them. For every state, every entry of
//! `protocol::tests::samples()` of a kind the state does not take — and
//! every frame of a kind it does take whose *content* no honest peer sends
//! (an index past the rank's examples, a rank that is no worker, a count
//! vector of the wrong length) — must come back as an `Err` whose `rank` is
//! the rank under test, whose `from` is the scripted sender and whose error
//! is the refusal (`CommError::Decode`), never a panic and never a hang.
//!
//! The rank under test runs the real, `Result`-returning protocol function
//! on a raw `MeshTransport` endpoint. Its peers are scripted: sends never
//! block, so everything they say — the honest prefix that walks the rank
//! into the state, then the hostile frame — is sent ahead of time, and then
//! every peer "dies" (the supervisor's death notice). A state that swallowed
//! its hostile frame and went on to wait therefore fails on a closed link,
//! which the table reports as a miss, instead of blocking: the wait is
//! bounded by construction, and a watchdog bounds the whole table besides.
//!
//! Two states *skip* kinds on purpose — the master's `AbortAck` drain and a
//! worker's quiesce drain down to `EpochFlush` discard whatever the aborted
//! epoch still had in flight — and are pinned as such by
//! `drains_skip_every_kind_on_purpose`. `a_failing_rank_is_the_error`
//! holds the other half of the contract: whichever way a rank fails, the
//! run's error names *it*, not the ranks its failure woke.

#[cfg(test)]
mod tests {
    use crate::baselines::{baseline_master, EvalGranularity};
    use crate::driver::RecoveryPolicy;
    use crate::fixtures::problem;
    use crate::master::{evaluate_all, run_master, run_search_epoch, Dealing};
    use crate::partition::partition_examples;
    use crate::protocol::tests::samples;
    use crate::protocol::{Msg, WorkerRole};
    use crate::remote::run_remote_worker;
    use crate::scheduler::{collect_worker_metrics, drain_job, run_resident_worker};
    use crate::worker::{run_worker, WorkerContext};
    use p2mdie_cluster::comm::{CommError, CommFailure, Endpoint, LinkFault};
    use p2mdie_cluster::{run_cluster, ClusterError, CostModel, MeshTransport, TrafficStats};
    use p2mdie_ilp::engine::IlpEngine;
    use p2mdie_ilp::examples::Examples;
    use p2mdie_ilp::settings::{Settings, Width};
    use p2mdie_ilp::CoverageMemo;
    use p2mdie_logic::clause::{Clause, Literal};
    use p2mdie_logic::term::Term;
    use std::time::Duration;

    /// What a scripted peer does, in script order.
    #[derive(Clone)]
    enum Step {
        /// Rank `.0` sends the rank under test this frame.
        Frame(usize, Msg),
        /// Rank `.0`'s link to the rank under test dies.
        Dies(usize),
    }
    use Step::{Dies, Frame};

    /// Runs `under_test` as rank `rank` of a raw `size`-rank mesh whose
    /// other ranks play `script` ahead of time and then die (see the module
    /// docs for why that bounds every wait).
    fn drive<R>(
        size: usize,
        rank: usize,
        script: &[Step],
        under_test: impl FnOnce(&mut Endpoint) -> Result<R, CommFailure>,
    ) -> Result<R, CommFailure> {
        let meshes = MeshTransport::mesh(size);
        let death = meshes[rank].down_handle(rank);
        let stats = TrafficStats::new(size);
        let mut eps: Vec<Endpoint> = meshes
            .into_iter()
            .enumerate()
            .map(|(r, t)| Endpoint::from_parts(r, size, t, CostModel::free(), stats.clone()))
            .collect();
        let everyone_dies = (0..size).filter(|&r| r != rank).map(Dies);
        for step in script.iter().cloned().chain(everyone_dies) {
            match step {
                Frame(from, msg) => eps[from].send(rank, &msg),
                Dies(peer) => assert!(death.notify(peer)),
            }
        }
        under_test(&mut eps[rank])
    }

    /// A receive state: who is under test, how its peers walk it there, who
    /// then sends the hostile frame, and what the state takes.
    struct State<'a> {
        name: &'static str,
        /// Mesh size, rank under test, rank the hostile frame comes from.
        mesh: (usize, usize, usize),
        /// What the peers send first.
        prefix: Vec<Step>,
        /// Kinds the state takes (a sample's name up to its `/`).
        takes: &'static [&'static str],
        /// Frames of a kind it takes whose content it must refuse.
        out_of_range: Vec<Msg>,
        run: Run<'a>,
    }

    /// The protocol function under test, run to its end on the given rank.
    type Run<'a> = Box<dyn Fn(&mut Endpoint) -> Result<(), CommFailure> + 'a>;

    /// Everything the table's states are built from: the 60-number problem
    /// (14 positives), a good rule, and the kinds a worker's command state
    /// takes with and without recovery armed.
    struct Fixture {
        engine: IlpEngine,
        ex: Examples,
        rule: Clause,
    }

    const COMMANDS: &[&str] = &[
        "LoadExamples",
        "StartPipeline",
        "Evaluate",
        "MarkCovered",
        "RetireSeed",
        "Stop",
    ];
    const RECOVERY_COMMANDS: &[&str] = &[
        "LoadExamples",
        "StartPipeline",
        "Evaluate",
        "MarkCovered",
        "RetireSeed",
        "Stop",
        "AbortEpoch",
        "AdoptExamples",
        "ReplayTheory",
    ];

    impl Fixture {
        fn new() -> Self {
            let (engine, ex) = problem(60);
            let syms = engine.kb.symbols();
            let lit = |name: &str| Literal::new(syms.intern(name), vec![Term::Var(0)]);
            let rule = Clause::new(lit("special"), vec![lit("even"), lit("div3")]);
            Fixture { engine, ex, rule }
        }

        /// `run_master` on `p` workers under `recovery`.
        fn master(
            &self,
            p: usize,
            recovery: RecoveryPolicy,
        ) -> impl Fn(&mut Endpoint) -> Result<(), CommFailure> + '_ {
            let dealing = Dealing::Static(partition_examples(&self.ex, p, 42).1);
            let settings = &self.engine.settings;
            move |ep| run_master(ep, settings, &self.ex, &dealing, 42, &recovery).map(drop)
        }

        /// `run_worker` on rank 1's half of the examples, in a job that
        /// recovers from a rank's death or not.
        fn worker(&self, recovery: bool) -> impl Fn(&mut Endpoint) -> Result<(), CommFailure> + '_ {
            let local = partition_examples(&self.ex, 2, 42).0.swap_remove(0);
            move |ep| {
                let mut ctx =
                    WorkerContext::new(self.engine.clone(), local.clone(), Width::Unlimited);
                ctx.role = WorkerRole::Pipeline {
                    width: Width::Unlimited,
                    recovery,
                };
                run_worker(ep, ctx, &mut CoverageMemo::new()).map(drop)
            }
        }

        fn found(&self, rules: Vec<(Clause, u32, u32)>) -> Msg {
            Msg::RulesFound {
                origin: 1,
                rules,
                had_seed: true,
                trace: Vec::new(),
            }
        }

        fn receive_states(&self) -> Vec<State<'_>> {
            let healing = || RecoveryPolicy::Repartition { max_rank_losses: 1 };
            let settings = &self.engine.settings;
            let origin = |origin| Msg::RulesFound {
                origin,
                rules: Vec::new(),
                had_seed: true,
                trace: Vec::new(),
            };
            let no_such_origin = || vec![origin(0), origin(2)];
            let past_the_examples = || vec![Msg::CoveredIdx { pos: vec![0, 14] }];
            let good = || self.found(vec![(self.rule.clone(), 10, 0)]);
            let counted = |pos| Msg::EvalResult {
                counts: vec![(pos, 0)],
            };
            let named = |name: &str| {
                let (_, msg) = samples().into_iter().find(|(n, _)| n == name).unwrap();
                msg
            };
            let one_node = Settings {
                max_nodes: 1,
                ..settings.clone()
            };
            let dealing = Dealing::Static(partition_examples(&self.ex, 1, 42).1);
            let baseline = move |settings: Settings| {
                let dealing = dealing.clone();
                move |ep: &mut Endpoint| {
                    let per_level = EvalGranularity::PerLevel;
                    let (engine, ex) = (&self.engine, &self.ex);
                    baseline_master(ep, engine, &settings, ex, &dealing, per_level).map(drop)
                }
            };
            let epoch = || {
                let start = [Msg::LoadExamples, Msg::StartPipeline { epoch: 1 }];
                start.map(|msg| Frame(0, msg)).to_vec()
            };
            let with = |mut prefix: Vec<Step>, step| {
                prefix.push(step);
                prefix
            };
            let dead = |dead| Msg::AbortEpoch { dead };
            vec![
                // --- The master (rank 0 of two; rank 1 is scripted). -------
                State {
                    name: "master: RulesFound (rule-search job)",
                    mesh: (2, 0, 1),
                    prefix: vec![],
                    takes: &["RulesFound"],
                    out_of_range: no_such_origin(),
                    run: Box::new(|ep| run_search_epoch(ep, settings).map(drop)),
                },
                State {
                    name: "master: RulesFound (learning run, watching)",
                    mesh: (2, 0, 1),
                    prefix: vec![],
                    takes: &["RulesFound"],
                    out_of_range: no_such_origin(),
                    run: Box::new(self.master(1, healing())),
                },
                State {
                    // The sample's two counts are not a bag of one's.
                    name: "master: EvalResult (bag of one rule)",
                    mesh: (2, 0, 1),
                    prefix: vec![Frame(1, good())],
                    takes: &[],
                    out_of_range: vec![],
                    run: Box::new(|ep| run_search_epoch(ep, settings).map(drop)),
                },
                State {
                    name: "master: EvalResult (coverage job, one clause)",
                    mesh: (2, 0, 1),
                    prefix: vec![],
                    takes: &[],
                    out_of_range: vec![],
                    run: Box::new(|ep| {
                        evaluate_all(ep, vec![self.rule.clone()])
                            .summed(ep)
                            .map(drop)
                    }),
                },
                State {
                    name: "master: SeedRetired (coverage tracked by count)",
                    mesh: (2, 0, 1),
                    prefix: vec![Frame(1, self.found(vec![]))],
                    takes: &["SeedRetired"],
                    out_of_range: vec![],
                    run: Box::new(self.master(1, RecoveryPolicy::Abort)),
                },
                State {
                    name: "master: CoveredIdx for a retired seed (tracked by index)",
                    mesh: (2, 0, 1),
                    prefix: vec![Frame(1, self.found(vec![]))],
                    takes: &["CoveredIdx"],
                    out_of_range: past_the_examples(),
                    run: Box::new(self.master(1, healing())),
                },
                State {
                    name: "master: CoveredIdx for an accepted rule",
                    mesh: (2, 0, 1),
                    prefix: vec![Frame(1, good()), Frame(1, counted(10))],
                    takes: &["CoveredIdx"],
                    out_of_range: past_the_examples(),
                    run: Box::new(self.master(1, healing())),
                },
                State {
                    name: "baseline master: EvalResult (level of one clause)",
                    mesh: (2, 0, 1),
                    prefix: vec![],
                    takes: &[],
                    out_of_range: vec![],
                    run: Box::new(baseline.clone()(settings.clone())),
                },
                State {
                    name: "baseline master: CoveredIdx",
                    mesh: (2, 0, 1),
                    prefix: vec![Frame(1, counted(14))],
                    takes: &["CoveredIdx"],
                    out_of_range: past_the_examples(),
                    run: Box::new(baseline(one_node)),
                },
                State {
                    name: "master: JobResult (job 7)",
                    mesh: (2, 0, 1),
                    prefix: vec![],
                    takes: &[],
                    out_of_range: vec![],
                    run: Box::new(|ep| drain_job(ep, 7).map(drop)),
                },
                State {
                    name: "master: MetricsReport",
                    mesh: (2, 0, 1),
                    prefix: vec![],
                    takes: &["MetricsReport"],
                    out_of_range: vec![],
                    run: Box::new(|ep| collect_worker_metrics(ep).map(drop)),
                },
                // --- A worker (rank 1 of a ring of two; 0 and 2 scripted). --
                State {
                    name: "worker: master command",
                    mesh: (3, 1, 0),
                    prefix: vec![],
                    takes: COMMANDS,
                    out_of_range: vec![],
                    run: Box::new(self.worker(false)),
                },
                State {
                    name: "worker: master command, recovery armed",
                    mesh: (3, 1, 0),
                    prefix: vec![],
                    takes: RECOVERY_COMMANDS,
                    out_of_range: vec![dead(0), dead(1), dead(3), dead(200)],
                    run: Box::new(self.worker(true)),
                },
                State {
                    name: "worker: ring token",
                    mesh: (3, 1, 2),
                    prefix: epoch(),
                    takes: &["PipelineStage"],
                    // Stage 3 of a ring of two, over literal 4 of one.
                    out_of_range: vec![named("PipelineStage/full")],
                    run: Box::new(self.worker(false)),
                },
                State {
                    name: "worker: ring token, recovery armed (from the ring)",
                    mesh: (3, 1, 2),
                    prefix: epoch(),
                    takes: &["PipelineStage", "EpochFlush"],
                    out_of_range: vec![named("PipelineStage/full")],
                    run: Box::new(self.worker(true)),
                },
                State {
                    name: "worker: ring token, recovery armed (from the master)",
                    mesh: (3, 1, 0),
                    prefix: epoch(),
                    takes: &["AbortEpoch"],
                    out_of_range: vec![dead(1), dead(3)],
                    run: Box::new(self.worker(true)),
                },
                State {
                    name: "worker: AbortEpoch after a ring flush",
                    mesh: (3, 1, 0),
                    prefix: with(epoch(), Frame(2, Msg::EpochFlush)),
                    takes: &["AbortEpoch"],
                    out_of_range: vec![dead(1), dead(3)],
                    run: Box::new(self.worker(true)),
                },
                State {
                    name: "worker: AbortEpoch after a ring death",
                    mesh: (3, 1, 0),
                    prefix: with(epoch(), Dies(2)),
                    takes: &["AbortEpoch"],
                    out_of_range: vec![dead(1), dead(3)],
                    run: Box::new(self.worker(true)),
                },
                // --- A resident worker and a worker process (rank 1 of two). -
                State {
                    name: "resident worker: idle",
                    mesh: (2, 1, 0),
                    prefix: vec![],
                    takes: &["KbSnapshot", "SubmitJob", "MetricsQuery", "Stop"],
                    out_of_range: vec![named("SubmitJob/kept-examples")],
                    run: Box::new(|ep| run_resident_worker(ep, self.engine.kb.clone()).map(drop)),
                },
                State {
                    name: "worker process: first frame",
                    mesh: (2, 1, 0),
                    prefix: vec![],
                    takes: &["KbSnapshot"],
                    out_of_range: vec![],
                    run: Box::new(|ep| run_remote_worker(ep).map(drop)),
                },
            ]
        }
    }

    /// Fails the test, instead of the suite's patience, if `table` hangs.
    fn bounded(table: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            table();
            let _ = done.send(());
        });
        // A panic in the table drops `done`: the wait ends at once, the join
        // hands the panic on. Only a hang runs into the timeout.
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            finished.recv_timeout(Duration::from_secs(300))
        {
            panic!("a receive state hung");
        }
        thread.join().expect("the table panicked (see above)");
    }

    #[test]
    fn every_receive_state_refuses_what_it_does_not_take() {
        bounded(|| {
            let fixture = Fixture::new();
            let samples = samples();
            let mut refused = 0;
            for state in fixture.receive_states() {
                let (size, rank, from) = state.mesh;
                let of_another_kind = samples.iter().filter(|(name, _)| {
                    let kind = name.split('/').next().unwrap();
                    !state.takes.contains(&kind)
                });
                let hostile = of_another_kind
                    .map(|(name, msg)| (name.clone(), msg.clone()))
                    .chain(
                        state
                            .out_of_range
                            .iter()
                            .map(|m| (format!("{m:?}"), m.clone())),
                    );
                for (what, msg) in hostile {
                    let script: Vec<Step> = state
                        .prefix
                        .iter()
                        .cloned()
                        .chain([Frame(from, msg)])
                        .collect();
                    match drive(size, rank, &script, &state.run) {
                        Err(f)
                            if (f.rank, f.from) == (rank, from)
                                && matches!(f.error, CommError::Decode(_)) =>
                        {
                            refused += 1
                        }
                        other => panic!(
                            "{}: rank {rank} must refuse rank {from}'s {what}, got {other:?}",
                            state.name
                        ),
                    }
                }
            }
            // 20 states; the command states, which take most kinds, still
            // refuse 28 and 25 of the 34 samples (654 refusals in all).
            assert!(refused >= 645, "the table shrank: {refused} refusals");
        });
    }

    /// The two states that discard frames by design do discard every kind:
    /// the run goes on behind them to the next thing it does.
    #[test]
    fn drains_skip_every_kind_on_purpose() {
        bounded(|| {
            let fixture = Fixture::new();
            let in_flight = |from: usize, end: &str| -> Vec<Step> {
                let skipped = samples()
                    .into_iter()
                    .filter(|(name, _)| !name.starts_with(end) && !name.starts_with("CoveredIdx"));
                skipped.map(|(_, msg)| Frame(from, msg)).collect()
            };
            // The master's `AbortAck` drain: rank 2 of two workers is dead
            // from the start; rank 1's stale frames, an in-range coverage
            // reply and its ack are drained, its orphans adopted and the
            // theory replayed — where rank 1, scripted no further, dies too.
            let mut script = vec![Dies(2)];
            script.extend(in_flight(1, "AbortAck"));
            script.push(Frame(1, Msg::CoveredIdx { pos: vec![0] }));
            script.push(Frame(1, Msg::AbortAck));
            let healing = RecoveryPolicy::Repartition { max_rank_losses: 1 };
            let second = drive(3, 0, &script, fixture.master(2, healing.clone())).unwrap_err();
            assert_eq!((second.rank, second.from), (0, 1), "{second}");
            assert!(second.expected.contains("ReplayTheory"), "{second}");
            assert!(
                matches!(&second.error, CommError::Closed(e) if e.fault == LinkFault::Closed),
                "{second}"
            );
            // The same drain refuses an index past the survivor's examples.
            let script = [Dies(2), Frame(1, Msg::CoveredIdx { pos: vec![7] })];
            let refused = drive(3, 0, &script, fixture.master(2, healing)).unwrap_err();
            assert_eq!((refused.rank, refused.from), (0, 1), "{refused}");
            assert!(matches!(refused.error, CommError::Decode(_)), "{refused}");

            // A worker's quiesce drain: rank 1 of a ring of three is told,
            // between epochs, that rank 2 (its successor) died; it discards
            // what rank 3 (its predecessor) had in flight down to the flush
            // marker, acks, and serves the next command — `Stop`.
            let mut script = vec![Frame(0, Msg::AbortEpoch { dead: 2 })];
            script.extend(in_flight(3, "EpochFlush"));
            script.push(Frame(3, Msg::EpochFlush));
            script.push(Frame(0, Msg::Stop));
            drive(4, 1, &script, fixture.worker(true)).unwrap();
        });
    }

    /// Root cause, not victim, and never a hang: rank 2 of three fails
    /// mid-epoch — it has been told to start its pipeline and says nothing
    /// more — while rank 3 blocks on its token, rank 1 on rank 3's second
    /// token and the master on rank 1's `RulesFound`. Whether rank 2
    /// returned its failure or panicked, the run's error names rank 2 and
    /// says which it was.
    #[test]
    fn a_failing_rank_is_the_error() {
        bounded(|| {
            let fixture = Fixture::new();
            let master = fixture.master(3, RecoveryPolicy::Abort);
            let subsets = partition_examples(&fixture.ex, 3, 42).0;
            for panics in [false, true] {
                let err = run_cluster(3, CostModel::free(), &master, |ep| {
                    if ep.rank() == 2 {
                        Msg::recv(ep, 0, "LoadExamples")?;
                        Msg::recv(ep, 0, "StartPipeline")?;
                        assert!(!panics, "injected panic");
                        return Err(ep.refusal(0, "a token", "injected failure"));
                    }
                    let local = subsets[ep.rank() - 1].clone();
                    let ctx = WorkerContext::new(fixture.engine.clone(), local, Width::Unlimited);
                    run_worker(ep, ctx, &mut CoverageMemo::new()).map(drop)
                })
                .unwrap_err();
                match &err {
                    ClusterError::WorkerPanicked { rank: 2, message } if panics => {
                        assert!(message.contains("injected panic"), "{err}")
                    }
                    ClusterError::WorkerFailed { rank: 2, message } if !panics => {
                        assert!(
                            message.contains("rank 2: failed receiving a token"),
                            "{err}"
                        );
                        assert!(message.contains("injected failure"), "{err}");
                    }
                    other => panic!("panics={panics}: expected rank 2's own failure, got {other}"),
                }
            }
        });
    }
}
