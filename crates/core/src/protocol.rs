//! The p²-mdie wire protocol.
//!
//! One message enum covers the whole algorithm (paper Figures 5–7):
//! `LoadExamples` / `StartPipeline` / `PipelineStage` / `RulesFound` /
//! `Evaluate` / `EvalResult` / `MarkCovered` / `RetireSeed` / `SeedRetired` /
//! `Stop`, plus the protocol-v5 job-control frames ([`Msg::SubmitJob`] /
//! [`Msg::JobResult`]) that hand a worker its work —
//! many jobs back to back on a service's mesh (see [`crate::scheduler`]),
//! exactly one on a one-shot run's (see [`crate::driver`]) — and the
//! protocol-v6 introspection pair
//! ([`Msg::MetricsQuery`] / [`Msg::MetricsReport`]) that lets the master
//! pull live per-worker metric snapshots between jobs. Protocol v7 adds the
//! strategy seam: the [`Strategy`] + strategy-seed fields on
//! [`WorkerConfig`], so one resident mesh can multiplex jobs of different
//! strategies. Protocol v8 only retires frames: the v3 process bootstrap
//! (`Configure` + `LoadPartition`, tags 13 and 14 — a worker process is now
//! handed its work as a `SubmitJob`, like a resident one) and the advisory
//! `CancelJob` (tag 24, which every receiver ignored). Retired tags are not
//! reused.
//! Protocol v9 moves bytes in one frame: [`Msg::SubmitJob`] carries the
//! rank's example subset only when the rank does not already hold it — an
//! `Option` where v8 had the two lists, `None` naming the subset the rank
//! kept from its previous job (see [`crate::scheduler`]) — so that a
//! resident service ships a set once and clauses ever after. The master
//! knows a rank holds its subset by the whole set it was dealt from, not
//! by the subset: then every rank's frame is the same, encoded once. An
//! [`Examples`] travels as its two `Vec<Literal>`s do, whatever shares
//! them in memory. No tag is added or retired. Protocol v10 retires tag 27
//! (`Constraint`, a worker-to-worker broadcast nothing sends) and strategy
//! tag 2. Protocol v11 changes no message: it grows two socket frames
//! (`p2mdie_cluster::net`). Protocol v12 retires tag 15, the frame that armed a
//! worker's recovery at any point of a job: whether a job recovers from a
//! rank's death travels in its [`WorkerRole`], for the whole job, in the
//! slot where the role's re-dealing flag was, and re-dealing is strategy
//! tag 3 ([`Strategy::Redeal`]). Protocol v13 retires tag 22, the
//! acknowledgement a worker sent for every `SubmitJob`: it carried nothing,
//! and waiting for it cost every job a round trip. A job's frames now
//! follow its `SubmitJob` at once, and its `JobResult` is the only answer.
//! Protocol v14 grows [`Msg::JobResult`] by the bytes and messages the rank
//! sent for the job, so a job's accounting counts the whole mesh's traffic
//! over TCP as it does in process.
//! Every payload is encoded through the byte-accurate
//! [`Wire`](p2mdie_logic::wire) codec, so the traffic statistics reproduce
//! Table 4 exactly as "bytes that would have crossed the network".
//!
//! Terms reference [`p2mdie_logic::symbol::SymbolId`]s shared by all ranks
//! — the analogue of the
//! paper's assumption that "data can be shared by all processors through a
//! distributed file system", under which every node agrees on every name.
//!
//! Clauses travel in their *plain* (uncompiled) form: `PredId`s, term-arena
//! ids and posting lists are rank-local artifacts of each worker's
//! [`p2mdie_logic::kb::KnowledgeBase`], so a shipped rule is recompiled on
//! arrival by the receiver's `assert_rule` (dispatch resolution is one map
//! probe per body literal — negligible next to the wire transfer itself).
//! The one exception is [`Msg::KbSnapshot`]: the whole *compiled*
//! background KB — arena, columnar facts, posting lists, compiled rules —
//! travels once, master → worker, so worker startup is a single transfer
//! instead of a per-rank rebuild (see [`p2mdie_logic::snapshot`]).
//!
//! Every type on the wire declares its layout once, next to its
//! definition, as a [`p2mdie_logic::wire`] table: terms, clauses and the
//! snapshot in `p2mdie-logic`, bottom clauses, scored rules, modes and
//! settings in `p2mdie-ilp`, and here the token, the worker configuration
//! and [`Msg`] itself — one row per tag. `tests/golden/wire_layout.txt`
//! pins the bytes of every variant.

use crate::strategy::Strategy;
use p2mdie_cluster::comm::{CommFailure, Endpoint};
use p2mdie_cluster::transport::Transport;
use p2mdie_ilp::bottom::BottomClause;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::modes::ModeSet;
use p2mdie_ilp::search::ScoredRule;
use p2mdie_ilp::settings::{Settings, Width};
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::snapshot::KbSnapshot;
use p2mdie_logic::{wire_enum, wire_struct};
use p2mdie_obs::MetricsSnapshot;

// ---------------------------------------------------------------------------
// Pipeline traces (raw material for the paper's Figures 3–4).
// ---------------------------------------------------------------------------

/// One pipeline stage's execution record, carried along with the token so
/// the master can reconstruct the pipeline diagram of Figures 3–4.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageTrace {
    /// Worker rank that executed the stage.
    pub worker: u8,
    /// Stage number (1-based).
    pub step: u8,
    /// Virtual time when the stage started.
    pub start: f64,
    /// Virtual time when the stage finished.
    pub end: f64,
    /// Rules received as search seeds.
    pub rules_in: u32,
    /// Rules forwarded to the next stage (after the width cut).
    pub rules_out: u32,
}

wire_struct!(StageTrace {
    worker,
    step,
    start,
    end,
    rules_in,
    rules_out
});

/// A pipeline token travelling between stages: the bottom clause built by
/// the origin worker, the good rules found so far, and the trace.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineToken {
    /// Worker rank (1-based) whose seed example started this pipeline.
    pub origin: u8,
    /// Stage the *receiver* must execute (2-based when travelling).
    pub step: u8,
    /// The ⊥e the whole pipeline searches under; `None` when the origin had
    /// no live example (an empty token that just keeps the schedule static).
    pub bottom: Option<BottomClause>,
    /// Rules found so far (ranked by local score at the previous stage).
    pub rules: Vec<ScoredRule>,
    /// Per-stage execution records.
    pub trace: Vec<StageTrace>,
}

wire_struct!(PipelineToken {
    origin,
    step,
    bottom,
    rules,
    trace
});

// ---------------------------------------------------------------------------
// Per-job worker configuration.
// ---------------------------------------------------------------------------

/// Which shape of the worker loop a rank runs.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerRole {
    /// The p²-mdie pipelined worker (paper Figure 6).
    Pipeline {
        /// Pipeline width `W`.
        width: Width,
        /// The job may lose ranks: arm the worker-side recovery protocol
        /// (`AbortEpoch` handling, ring membership tracking, `CoveredIdx`
        /// replies) for the whole job.
        recovery: bool,
    },
    /// The coverage-parallel baseline's worker (paper §6): the same loop,
    /// never sent a `StartPipeline`, answering every `MarkCovered` with the
    /// covered indices.
    Coverage,
}
wire_enum!(WorkerRole, "worker role tag" {
    0 => Pipeline { width, recovery },
    1 => Coverage,
});

/// Everything a worker needs, beyond the compiled KB and its example
/// subset, to run one job (`crate::worker::run_role`): the language bias,
/// the search constraints, its role, and the strategy. It travels inside
/// [`Msg::SubmitJob`] (its fields in the order of the wire table below,
/// each through its own type's table) and configures the rank for that job
/// over the already-adopted KB.
///
/// Symbol ids inside the modes are the master's; they stay valid on a
/// worker process because the KB snapshot ships the master's *complete*
/// symbol dictionary and the worker restores it into a fresh table
/// (id-preserving path) before anything else is interned.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerConfig {
    /// The worker loop to run.
    pub role: WorkerRole,
    /// Language bias (master's symbol ids).
    pub modes: ModeSet,
    /// Search constraints, with `eval_threads` already set to this rank's
    /// fair share of the machine.
    pub settings: Settings,
    /// How the job deals its examples. Only meaningful for `Pipeline`-role
    /// learning work; everything else runs [`Strategy::DataPipeline`]
    /// semantics regardless.
    pub strategy: Strategy,
    /// Seed salting the strategy's lattice slices (distinct from the
    /// example-partition seed, which stays master-side).
    pub strategy_seed: u64,
}

wire_struct!(WorkerConfig {
    role,
    modes,
    settings,
    strategy,
    strategy_seed
});

// ---------------------------------------------------------------------------
// The message enum.
// ---------------------------------------------------------------------------

impl Msg {
    /// Receives and decodes the next message from rank `from`. Returns a
    /// [`CommFailure`] naming the receiving rank, the source rank and what
    /// was `expected` when nothing usable arrived: the frame is malformed,
    /// the link died under the receive (a peer exiting early), or another
    /// rank failed and its poison marker woke this one — all three are the
    /// [`p2mdie_cluster::comm::CommError`] values of `recv_msg`. Callers
    /// pass it up with `?`; the rank that returns it from its protocol
    /// function wakes its peers, and the runtimes turn the root cause into a
    /// rank-tagged `ClusterError`.
    pub fn recv<T: Transport>(
        ep: &mut Endpoint<T>,
        from: usize,
        expected: &str,
    ) -> Result<Msg, CommFailure> {
        ep.recv_msg(from)
            .map_err(|error| ep.failure(from, expected, error))
    }

    /// [`Msg::recv`], then `pick` what the protocol's state allows out of
    /// the message: a well-formed frame of another kind, or of the right
    /// kind saying the wrong thing (`pick`'s `Err`), is refused like a
    /// malformed one ([`Endpoint::refusal`]).
    pub(crate) fn expect<T: Transport, R>(
        ep: &mut Endpoint<T>,
        from: usize,
        expected: &str,
        pick: impl FnOnce(Msg) -> Result<R, &'static str>,
    ) -> Result<R, CommFailure> {
        pick(Msg::recv(ep, from, expected)?).map_err(|why| ep.refusal(from, expected, why))
    }
}

/// Every message exchanged by the p²-mdie master and workers.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Master → workers: load your subset (the data itself is shared, as in
    /// the paper's distributed-file-system assumption).
    LoadExamples,
    /// Master → worker k: start a pipeline from one of your live examples.
    StartPipeline {
        /// Epoch number (for tracing).
        epoch: u32,
    },
    /// Worker → next worker: the travelling pipeline token.
    PipelineStage(PipelineToken),
    /// Last stage → master: the pipeline's surviving rules, materialized as
    /// clauses (the master has no bottom clause to expand shapes against).
    RulesFound {
        /// Pipeline origin (worker rank).
        origin: u8,
        /// Surviving rules with their final-stage local scores.
        rules: Vec<(Clause, u32, u32)>,
        /// Whether the origin actually had a live seed example.
        had_seed: bool,
        /// The pipeline's trace (for Figures 3–4).
        trace: Vec<StageTrace>,
    },
    /// Master → workers: score these rules on your live subset.
    Evaluate {
        /// Bag contents, in bag order.
        rules: Vec<Clause>,
    },
    /// Worker → master: `(pos, neg)` counts aligned with the `Evaluate`
    /// bag order.
    EvalResult {
        /// Per-rule local coverage counts.
        counts: Vec<(u32, u32)>,
    },
    /// Master → workers: a rule was accepted; remove the positives it
    /// covers and add it to the local background (paper Fig. 6).
    MarkCovered {
        /// The accepted rule.
        rule: Clause,
    },
    /// Master → workers: the epoch made no progress; retire your current
    /// seed example so the run terminates (April sets such examples aside).
    RetireSeed,
    /// Worker → master: how many examples the retire removed (0 or 1).
    SeedRetired {
        /// Removed count.
        removed: u32,
    },
    /// Worker → master: the *local indices* of positives covered by the
    /// last `MarkCovered` rule. Used by the coverage-parallel baseline, by
    /// [`Strategy::Redeal`] and by a recovering run, where the master tracks
    /// the global live set (plain p²-mdie never needs it).
    CoveredIdx {
        /// Local positive-example indices removed from the live set.
        pos: Vec<u32>,
    },
    /// Master → worker: replace your local example subset
    /// ([`Strategy::Redeal`], §4.1's rejected alternative; deliberately
    /// expensive — the examples travel in full).
    NewPartition {
        /// New local positive examples.
        pos: Vec<Literal>,
        /// New local negative examples.
        neg: Vec<Literal>,
    },
    /// Master → workers: the full compiled background KB, built once at the
    /// master and adopted by the worker without re-interning or
    /// re-indexing ([`p2mdie_logic::snapshot::KbSnapshot`]). Sent (when KB
    /// shipping is enabled) before `LoadExamples`, so startup is accounted
    /// in virtual time as one transfer per worker instead of a per-rank
    /// rebuild.
    KbSnapshot(Box<KbSnapshot>),
    /// Master → workers: run over, shut down.
    Stop,
    /// Master → survivors: rank `dead` is gone; abandon the current epoch,
    /// flush in-flight ring traffic, shrink the ring, and ack.
    AbortEpoch {
        /// The dead rank.
        dead: u8,
    },
    /// Worker → (old) ring successor during an epoch abort: everything in
    /// flight from me is before this marker — stop draining.
    EpochFlush,
    /// Worker → master: epoch abort finished, ring shrunk, ready for the
    /// recovery payload.
    AbortAck,
    /// Master → survivor: adopt these orphaned examples (a dead rank's
    /// share) *in addition to* your current subset. The reply protocol
    /// continues with the adopter's local indices extended in sent order.
    AdoptExamples {
        /// Orphaned positive examples.
        pos: Vec<Literal>,
        /// Orphaned negative examples.
        neg: Vec<Literal>,
    },
    /// Master → survivors after a repartition-on-death: re-evaluate the
    /// accepted theory against your (new) live set and reply with one
    /// `CoveredIdx` of everything it covers, so the master's global live
    /// set resynchronizes exactly even if the death raced a `MarkCovered`
    /// round. The rules are *not* re-asserted (survivors already hold
    /// them in their background KB).
    ReplayTheory {
        /// The accepted theory so far, in acceptance order.
        rules: Vec<Clause>,
    },
    /// Master → idle worker (protocol v5): bootstrap one job over the
    /// already-adopted KB. Carries everything that differs between jobs —
    /// role, language bias, settings, and this rank's example subset when
    /// the rank does not hold it already (protocol v9) — and nothing that
    /// doesn't (the compiled KB shipped once, when the mesh came up). The
    /// worker runs the role loop on its base KB until the job's `Stop`,
    /// replies [`Msg::JobResult`] — its only answer to the job — and
    /// returns to idle. A service sends many; a one-shot run sends exactly
    /// one per rank.
    SubmitJob {
        /// Master-assigned job id, echoed by the job's `JobResult`.
        id: u64,
        /// Per-job worker configuration.
        config: Box<WorkerConfig>,
        /// This rank's examples for the job; `None` when they are the
        /// subset the rank kept from its previous job — in which case every
        /// rank's frame is `None` too. A rank that kept none refuses the
        /// frame.
        examples: Option<Examples>,
    },
    /// Resident worker → master: the job's role loop finished; `steps`,
    /// `bytes` and `messages` are what this rank spent on this job alone
    /// (the per-job slice of what the one-shot path reports globally), so
    /// the master accounts the whole mesh's traffic of a job on either
    /// transport (protocol v14).
    JobResult {
        /// The finished job's id.
        id: u64,
        /// Compute steps this rank spent on this job.
        steps: u64,
        /// Bytes this rank sent for this job, on every link, this frame
        /// aside.
        bytes: u64,
        /// Messages this rank sent for this job, this frame aside.
        messages: u64,
    },
    /// Master → *idle* resident worker (protocol v6): report your live
    /// metric snapshot. Only sent between jobs (the resident idle loop is
    /// the only place a worker is guaranteed to be reading its master
    /// link), so introspection never perturbs a running job's traffic
    /// accounting.
    MetricsQuery,
    /// Resident worker → master: the rank's current
    /// [`p2mdie_obs::MetricsSnapshot`] — endpoint-level vtime/steps/byte
    /// counters plus everything in the rank's registry. Always answered,
    /// even with metrics sampling off (the endpoint-derived entries are
    /// maintained by the protocol itself).
    MetricsReport {
        /// The reporting rank's snapshot.
        snapshot: MetricsSnapshot,
    },
}

// One row per message: the wire tag a peer can be sent, the variant, its
// fields in wire order. 13 `Configure`, 14 `LoadPartition`, 15 (recovery's
// arming frame), 22 (the submission's acknowledgement), 24 `CancelJob` and
// 27 `Constraint` are retired and never reused; like any unknown tag they
// are refused.
wire_enum!(Msg, "message tag" {
    0 => LoadExamples,
    1 => StartPipeline { epoch },
    2 => PipelineStage(token),
    3 => RulesFound { origin, rules, had_seed, trace },
    4 => Evaluate { rules },
    5 => EvalResult { counts },
    6 => MarkCovered { rule },
    7 => RetireSeed,
    8 => SeedRetired { removed },
    9 => Stop,
    10 => CoveredIdx { pos },
    11 => NewPartition { pos, neg },
    12 => KbSnapshot(snapshot),
    16 => AbortEpoch { dead },
    17 => EpochFlush,
    18 => AbortAck,
    19 => AdoptExamples { pos, neg },
    20 => ReplayTheory { rules },
    21 => SubmitJob { id, config, examples },
    23 => JobResult { id, steps, bytes, messages },
    25 => MetricsQuery,
    26 => MetricsReport { snapshot },
});

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::Bytes;
    use p2mdie_cluster::codec::{from_bytes, to_bytes};
    use p2mdie_ilp::bottom::BottomLiteral;
    use p2mdie_ilp::refine::RuleShape;
    use p2mdie_ilp::settings::ScoreFn;
    use p2mdie_logic::symbol::SymbolTable;
    use p2mdie_logic::term::{Term, F64};
    use p2mdie_obs::{MetricEntry, MetricValue};

    fn sample_clause(t: &SymbolTable) -> Clause {
        Clause::new(
            Literal::new(t.intern("active"), vec![Term::Var(0)]),
            vec![
                Literal::new(
                    t.intern("atm"),
                    vec![
                        Term::Var(0),
                        Term::Var(1),
                        Term::Sym(t.intern("n")),
                        Term::Float(F64(0.5)),
                    ],
                ),
                Literal::new(t.intern(">="), vec![Term::Var(1), Term::Int(3)]),
            ],
        )
    }

    fn sample_bottom(t: &SymbolTable) -> BottomClause {
        BottomClause {
            head: Literal::new(t.intern("active"), vec![Term::Var(0)]),
            head_vars: vec![0],
            lits: vec![BottomLiteral {
                lit: Literal::new(t.intern("atm"), vec![Term::Var(0), Term::Var(1)]),
                inputs: vec![0],
                outputs: vec![1],
                depth: 1,
            }],
            num_vars: 2,
            example: Literal::new(t.intern("active"), vec![Term::Sym(t.intern("m1"))]),
            steps: 0,
        }
    }

    fn roundtrip(msg: Msg) {
        let b = to_bytes(&msg);
        let back: Msg = from_bytes(b).unwrap();
        assert_eq!(back, msg);
    }

    fn example(t: &SymbolTable, name: &str) -> Vec<Literal> {
        vec![Literal::new(
            t.intern("active"),
            vec![Term::Sym(t.intern(name))],
        )]
    }

    /// One named value per wire shape: every `Msg` variant, both
    /// `PipelineToken` shapes, the role × strategy `SubmitJob` grid and a
    /// small compiled KB. The round-trip, golden-layout, truncation and
    /// corruption tests all walk this list, and so does the scripted-peer
    /// table of `crate::receive_states`.
    pub(crate) fn samples() -> Vec<(String, Msg)> {
        use p2mdie_logic::kb::KnowledgeBase;
        let t = SymbolTable::new();
        let mut out: Vec<(String, Msg)> = Vec::new();
        let mut add = |name: &str, msg: Msg| out.push((name.to_owned(), msg));
        add("LoadExamples", Msg::LoadExamples);
        add("StartPipeline", Msg::StartPipeline { epoch: 3 });
        add(
            "PipelineStage/full",
            Msg::PipelineStage(PipelineToken {
                origin: 2,
                step: 3,
                bottom: Some(sample_bottom(&t)),
                rules: vec![ScoredRule {
                    shape: RuleShape::from_indices(vec![0, 4]),
                    pos: 7,
                    neg: 1,
                    score: 6,
                }],
                trace: vec![StageTrace {
                    worker: 2,
                    step: 1,
                    start: 0.5,
                    end: 1.5,
                    rules_in: 0,
                    rules_out: 1,
                }],
            }),
        );
        add(
            "PipelineStage/empty",
            Msg::PipelineStage(PipelineToken {
                origin: 1,
                step: 2,
                bottom: None,
                rules: vec![],
                trace: vec![],
            }),
        );
        add(
            "RulesFound",
            Msg::RulesFound {
                origin: 1,
                rules: vec![(sample_clause(&t), 5, 0)],
                had_seed: true,
                trace: vec![],
            },
        );
        add(
            "Evaluate",
            Msg::Evaluate {
                rules: vec![sample_clause(&t), sample_clause(&t)],
            },
        );
        add(
            "EvalResult",
            Msg::EvalResult {
                counts: vec![(3, 0), (9, 2)],
            },
        );
        add(
            "MarkCovered",
            Msg::MarkCovered {
                rule: sample_clause(&t),
            },
        );
        add("RetireSeed", Msg::RetireSeed);
        add("SeedRetired", Msg::SeedRetired { removed: 1 });
        add("CoveredIdx", Msg::CoveredIdx { pos: vec![0, 5, 9] });
        add(
            "NewPartition",
            Msg::NewPartition {
                pos: example(&t, "m1"),
                neg: example(&t, "m2"),
            },
        );
        add("AbortEpoch", Msg::AbortEpoch { dead: 2 });
        add("EpochFlush", Msg::EpochFlush);
        add("AbortAck", Msg::AbortAck);
        add(
            "AdoptExamples",
            Msg::AdoptExamples {
                pos: example(&t, "m3"),
                neg: example(&t, "m4"),
            },
        );
        add(
            "ReplayTheory",
            Msg::ReplayTheory {
                rules: vec![sample_clause(&t)],
            },
        );
        let modes = p2mdie_ilp::modes::ModeSet::parse(
            &t,
            "active(+mol)",
            &[(8, "atm(+mol, -atom, #elem, -charge)"), (1, "solid")],
        )
        .unwrap();
        // The role that recovers is named for the run's policy,
        // `RecoveryPolicy::Repartition`.
        for (role_name, role) in [
            (
                "pipeline-w7-repartition",
                WorkerRole::Pipeline {
                    width: Width::Limit(7),
                    recovery: true,
                },
            ),
            (
                "pipeline-unlimited",
                WorkerRole::Pipeline {
                    width: Width::Unlimited,
                    recovery: false,
                },
            ),
            ("coverage", WorkerRole::Coverage),
        ] {
            for strategy in Strategy::ALL {
                add(
                    &format!("SubmitJob/{role_name}/{strategy}"),
                    Msg::SubmitJob {
                        id: 1,
                        config: Box::new(WorkerConfig {
                            role: role.clone(),
                            modes: modes.clone(),
                            settings: Settings {
                                noise: 3,
                                score: ScoreFn::Compression,
                                eval_threads: 2,
                                ..Settings::default()
                            },
                            strategy,
                            strategy_seed: 0xDEAD_BEEF_CAFE_F00D,
                        }),
                        examples: Some(Examples::default()),
                    },
                );
            }
        }
        add(
            "SubmitJob/with-examples",
            Msg::SubmitJob {
                id: 0x0102_0304_0506_0708,
                config: Box::new(WorkerConfig {
                    role: WorkerRole::Coverage,
                    modes: modes.clone(),
                    settings: Settings::default(),
                    strategy: Strategy::SearchPartition,
                    strategy_seed: 7,
                }),
                examples: Some(Examples::new(example(&t, "m1"), example(&t, "m2"))),
            },
        );
        add(
            "SubmitJob/kept-examples",
            Msg::SubmitJob {
                id: 2,
                config: Box::new(WorkerConfig {
                    role: WorkerRole::Coverage,
                    modes: modes.clone(),
                    settings: Settings::default(),
                    strategy: Strategy::DataPipeline,
                    strategy_seed: 0,
                }),
                examples: None,
            },
        );
        add(
            "JobResult",
            Msg::JobResult {
                id: 9,
                steps: u64::MAX / 3,
                bytes: 1_234,
                messages: 7,
            },
        );
        add("MetricsQuery", Msg::MetricsQuery);
        add(
            "MetricsReport/full",
            Msg::MetricsReport {
                snapshot: MetricsSnapshot {
                    entries: vec![
                        MetricEntry {
                            name: "worker_steps_total".to_owned(),
                            value: MetricValue::Counter(12345),
                        },
                        MetricEntry {
                            name: "worker_vtime_seconds".to_owned(),
                            value: MetricValue::Gauge(7.25),
                        },
                        MetricEntry {
                            name: "sample_sizes".to_owned(),
                            value: MetricValue::Histogram {
                                count: 4,
                                sum: 11,
                                buckets: vec![(0, 1), (3, 3)],
                            },
                        },
                    ],
                },
            },
        );
        add(
            "MetricsReport/empty",
            Msg::MetricsReport {
                snapshot: MetricsSnapshot::default(),
            },
        );
        add("Stop", Msg::Stop);
        // A compiled KB small enough to read in hex, with every part of a
        // `PredSnapshot` populated: ground facts (columns and postings), a
        // fact with a variable (an irregular row and an unindexed entry)
        // and a rule with predicate, builtin and unknown dispatch.
        let kb_syms = SymbolTable::new();
        let mut kb = KnowledgeBase::new(kb_syms.clone());
        for i in 0..3i64 {
            kb.assert_fact(Literal::new(
                kb_syms.intern("atm"),
                vec![Term::Int(i % 2), Term::Float(F64(0.25))],
            ));
        }
        kb.assert_fact(Literal::new(
            kb_syms.intern("atm"),
            vec![Term::Var(0), Term::Sym(kb_syms.intern("c"))],
        ));
        kb.assert_rule(Clause::new(
            Literal::new(kb_syms.intern("hot"), vec![Term::Var(0)]),
            vec![
                Literal::new(kb_syms.intern("atm"), vec![Term::Var(0), Term::Var(1)]),
                Literal::new(kb_syms.intern(">="), vec![Term::Var(1), Term::Int(0)]),
                Literal::new(kb_syms.intern("never_defined"), vec![Term::Var(0)]),
            ],
        ));
        kb.optimize();
        add("KbSnapshot", Msg::KbSnapshot(Box::new(kb.to_snapshot())));
        out
    }

    #[test]
    fn all_message_variants_roundtrip() {
        for (_, msg) in samples() {
            roundtrip(msg);
        }
    }

    /// The byte layout of every sample is the one recorded in
    /// `tests/golden/wire_layout.txt`: name, length, and the bytes in hex
    /// (their FNV-1a-64 where the hex would not fit a line).
    #[test]
    fn wire_layout_matches_golden() {
        let lines: Vec<String> = samples()
            .iter()
            .map(|(name, msg)| {
                let bytes = to_bytes(msg);
                let bytes = bytes.as_slice();
                let shown = if bytes.len() <= 192 {
                    bytes.iter().map(|b| format!("{b:02x}")).collect()
                } else {
                    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
                    });
                    format!("fnv1a64:{fnv:016x}")
                };
                format!("msg {name} {} {shown}", bytes.len())
            })
            .collect();
        let golden: Vec<&str> = include_str!("../../../tests/golden/wire_layout.txt")
            .lines()
            .filter(|l| l.starts_with("msg "))
            .collect();
        assert_eq!(lines, golden, "recorded:\n{}", lines.join("\n"));
    }

    /// What random junk cannot reach (it rarely survives the tag byte):
    /// every strict prefix of every sample is refused, and every single-byte
    /// substitution — `0x00`, `0xFF`, the low bit flipped — decodes or is
    /// refused without panicking.
    #[test]
    fn truncated_and_corrupted_samples_never_panic() {
        for (name, msg) in samples() {
            let bytes = to_bytes(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    from_bytes::<Msg>(bytes.slice(..cut)).is_err(),
                    "{name}: prefix of {cut} bytes decoded"
                );
            }
            let mut raw = bytes.to_vec();
            for i in 0..raw.len() {
                let old = raw[i];
                for new in [0x00, 0xFF, old ^ 1] {
                    raw[i] = new;
                    let _ = from_bytes::<Msg>(Bytes::from(raw.clone()));
                }
                raw[i] = old;
            }
        }
    }

    /// A count equal to the bytes left passes the one-byte-per-element
    /// test; over `PredSnapshot`s (136 bytes each in memory) it must still
    /// be refused — after reserving no more than the frame's own length.
    #[test]
    fn kb_snapshot_count_equal_to_bytes_left_is_rejected() {
        let body = vec![0u8; 1 << 12];
        // Tag 12, no symbols, no terms, then the lying predicate count.
        let head = to_bytes(&(12u8, (0u32, 0u32, body.len() as u32)));
        let raw = [head.to_vec(), body].concat();
        assert!(from_bytes::<Msg>(Bytes::from(raw)).is_err());
    }

    /// A strategy tag no `Strategy` has — an unknown one, and the retired
    /// 2 — inside an otherwise valid `SubmitJob` is rejected, not
    /// mis-decoded; tag 3 is `Redeal`.
    #[test]
    fn corrupt_constraint_payloads_are_rejected() {
        let t = SymbolTable::new();
        let modes = p2mdie_ilp::modes::ModeSet::parse(&t, "active(+mol)", &[(1, "solid")]).unwrap();
        let cfg_bytes = to_bytes(&Msg::SubmitJob {
            id: 1,
            config: Box::new(WorkerConfig {
                role: WorkerRole::Coverage,
                modes,
                settings: Settings::default(),
                strategy: Strategy::SearchPartition,
                strategy_seed: 3,
            }),
            examples: Some(Examples::default()),
        });
        // The config ends with the strategy tag and the u64 seed; after it
        // come the option's tag and one u32 count for each of the two empty
        // example lists.
        let mut raw = cfg_bytes.to_vec();
        let at = raw.len() - 9 - 9;
        assert_eq!(raw[at], 1, "the strategy tag");
        for tag in [200, 2] {
            raw[at] = tag;
            let refused = from_bytes::<Msg>(Bytes::from(raw.clone())).unwrap_err();
            assert_eq!(refused.context, "strategy tag", "tag {tag}");
        }
        raw[at] = 3;
        let Msg::SubmitJob { config, .. } = from_bytes(Bytes::from(raw)).unwrap() else {
            panic!("expected SubmitJob");
        };
        assert_eq!(config.strategy, Strategy::Redeal);
    }

    /// The compiled KB travels as one message and the receiver adopts it
    /// without re-interning or re-indexing: identical snapshot on both
    /// sides, identical retrieval plans.
    #[test]
    fn kb_snapshot_message_roundtrips_and_restores() {
        use p2mdie_logic::kb::KnowledgeBase;
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        for i in 0..50i64 {
            kb.assert_fact(Literal::new(
                t.intern("atm"),
                vec![Term::Int(i % 5), Term::Int(i), Term::Float(F64(0.25))],
            ));
        }
        kb.assert_rule(sample_clause(&t));
        kb.optimize();
        let snap = kb.to_snapshot();
        let bytes = to_bytes(&Msg::KbSnapshot(Box::new(snap.clone())));
        let Msg::KbSnapshot(arrived) = from_bytes(bytes).unwrap() else {
            panic!("expected KbSnapshot");
        };
        assert_eq!(*arrived, snap);
        let restored = KnowledgeBase::from_snapshot(*arrived, t.clone()).unwrap();
        assert_eq!(restored.to_snapshot(), snap);
        let key = Literal::new(t.intern("atm"), vec![Term::Int(0); 3]).key();
        assert_eq!(
            restored.plan_candidates(key, &[Some(Term::Int(3)), None, None]),
            kb.plan_candidates(key, &[Some(Term::Int(3)), None, None]),
        );
    }

    /// A truncated snapshot frame must decode-fail, not panic or misload.
    #[test]
    fn truncated_kb_snapshot_is_rejected() {
        use p2mdie_logic::kb::KnowledgeBase;
        let t = SymbolTable::new();
        let mut kb = KnowledgeBase::new(t.clone());
        kb.assert_fact(Literal::new(t.intern("p"), vec![Term::Int(1)]));
        let bytes = to_bytes(&Msg::KbSnapshot(Box::new(kb.to_snapshot())));
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                from_bytes::<Msg>(bytes.slice(..cut)).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// An unknown tag is a decode error, and so is a retired one — 13
    /// (`Configure`), 14 (`LoadPartition`), 15 (recovery's arming frame), 22
    /// (the submission's acknowledgement), 24 (`CancelJob`), 27
    /// (`Constraint`) — whatever follows it: an older peer's frame is
    /// refused, never mis-decoded and never a panic.
    #[test]
    fn corrupt_tag_is_rejected() {
        let t = SymbolTable::new();
        let lits = vec![Literal::new(t.intern("active"), vec![Term::Int(1)])];
        let bodies = [
            Vec::new(),
            // What used to follow the retired tags: a job id, a job id and
            // a queue size, and two example vectors.
            to_bytes(&7u64).to_vec(),
            to_bytes(&(7u64, 0u16)).to_vec(),
            [to_bytes(&lits).to_vec(), to_bytes(&lits).to_vec()].concat(),
            // … and tag 27: a rank, an epoch and a vector of rule shapes.
            to_bytes(&(3u8, 12u32, vec![RuleShape::from_indices(vec![1, 4, 9])])).to_vec(),
        ];
        for tag in [200u8, 13, 14, 15, 22, 24, 27] {
            for body in &bodies {
                let raw = [&[tag][..], body].concat();
                assert!(
                    from_bytes::<Msg>(Bytes::from(raw)).is_err(),
                    "tag {tag} must not decode"
                );
            }
        }
    }

    /// A frame whose clause nests `App` tags 100 000 deep is refused by the
    /// decoder's depth bound instead of recursing a worker's stack away.
    #[test]
    fn deeply_nested_terms_in_a_message_are_rejected() {
        let t = SymbolTable::new();
        let rule = |arg| Clause::fact(Literal::new(t.intern("active"), vec![arg]));
        // `MarkCovered { active(0) }`, cut before the head's only argument.
        let whole = to_bytes(&Msg::MarkCovered {
            rule: rule(Term::Int(0)),
        })
        .to_vec();
        let arg_and_body = to_bytes(&Term::Int(0)).len() + to_bytes(&Vec::<Literal>::new()).len();
        let mut raw = whole[..whole.len() - arg_and_body].to_vec();
        // The argument: an integer under 100 000 one-argument `App`s.
        use p2mdie_logic::wire::Wire;
        for _ in 0..100_000 {
            (4u8, 7u32, 1u32).encode(&mut raw);
        }
        Term::Int(0).encode(&mut raw);
        Vec::<Literal>::new().encode(&mut raw);
        let refused = from_bytes::<Msg>(Bytes::from(raw)).unwrap_err();
        assert_eq!(refused.context, "term nesting");
        // The splice itself is sound: one level of it is an ordinary message.
        let nested = Msg::MarkCovered {
            rule: rule(Term::app(t.intern("f"), vec![Term::Int(0)])),
        };
        assert_eq!(
            from_bytes::<Msg>(to_bytes(&nested)).unwrap(),
            nested,
            "a shallow compound argument still round-trips"
        );
    }

    #[test]
    fn token_sizes_grow_with_rules() {
        let t = SymbolTable::new();
        let mk = |n: usize| {
            Msg::PipelineStage(PipelineToken {
                origin: 1,
                step: 2,
                bottom: Some(sample_bottom(&t)),
                rules: (0..n)
                    .map(|i| ScoredRule {
                        shape: RuleShape::from_indices(vec![i as u32]),
                        pos: 1,
                        neg: 0,
                        score: 1,
                    })
                    .collect(),
                trace: vec![],
            })
        };
        let small = to_bytes(&mk(1)).len();
        let big = to_bytes(&mk(100)).len();
        assert!(
            big > small + 99 * 16,
            "each rule costs at least 16 bytes on the wire"
        );
    }

    /// Rules ship uncompiled; the receiving rank's KB resolves dispatch on
    /// assert (PredIds and arena ids are rank-local, SymbolIds global).
    #[test]
    fn shipped_clause_recompiles_at_receiver() {
        use p2mdie_logic::clause::LitKind;
        let t = SymbolTable::new();
        let rule = sample_clause(&t);
        let bytes = to_bytes(&Msg::MarkCovered { rule: rule.clone() });
        let Msg::MarkCovered { rule: arrived } = from_bytes(bytes).unwrap() else {
            panic!("expected MarkCovered");
        };
        let mut kb = p2mdie_logic::kb::KnowledgeBase::new(t.clone());
        kb.assert_rule(arrived);
        let pid = kb
            .pred_id(rule.head.key())
            .expect("entry created on assert");
        let crule = &kb.rules_compiled(pid)[0];
        assert!(matches!(crule.body[0].kind, LitKind::Pred(_)));
        assert!(matches!(crule.body[1].kind, LitKind::Builtin(_)));
        assert_eq!(crule.var_span, rule.var_span());
    }

    #[test]
    fn term_nesting_roundtrips() {
        let t = SymbolTable::new();
        let deep = Term::app(
            t.intern("f"),
            vec![
                Term::app(t.intern("g"), vec![Term::Var(3), Term::Int(-9)]),
                Term::Float(F64(2.5)),
            ],
        );
        let lit = Literal::new(t.intern("p"), vec![deep]);
        let msg = Msg::MarkCovered {
            rule: Clause::fact(lit),
        };
        roundtrip(msg);
    }
}
