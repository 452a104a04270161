//! End-to-end worker-death recovery tests, all in-process: the
//! `ChaosTransport` kills a rank's fabric deterministically mid-run and the
//! run must self-heal under `RecoveryPolicy::Repartition` — same induced
//! theory, same coverage counts as the fault-free run — instead of failing.
//!
//! The companion guarantee (default `RecoveryPolicy::Abort` keeps every
//! legacy outcome byte-for-byte) is pinned by the whole existing suite plus
//! `abort_policy_is_untouched_by_the_recovery_seam` below.

use p2mdie_cluster::ChaosConfig;
use p2mdie_core::driver::{run_parallel, ParallelConfig, RecoveryPolicy};
use p2mdie_core::report::ParallelReport;
use p2mdie_core::Strategy;
use p2mdie_ilp::settings::Width;
use proptest::prelude::*;

/// The run's observable decision sequence: every accepted clause
/// (alpha-normalized) with its global coverage counts, in acceptance
/// order. Epoch numbers, pipeline origins, and variable numbering
/// legitimately differ across a recovery (the aborted epoch is re-run
/// over fewer ranks), so they are deliberately not compared.
fn decisions(rep: &ParallelReport) -> Vec<(p2mdie_logic::clause::Clause, u32, u32)> {
    rep.theory
        .iter()
        .map(|r| (r.clause.normalize(), r.pos, r.neg))
        .collect()
}

fn recovering_cfg(workers: usize) -> ParallelConfig {
    ParallelConfig::new(workers, Width::Limit(10), 5)
        .with_recovery(RecoveryPolicy::Repartition { max_rank_losses: 1 })
}

/// Killing rank 1 mid-run must not change what the cluster learns: theory
/// and coverage counts bit-identical to the fault-free run, with the death
/// and its recovery traffic visible in the report.
#[test]
fn killed_rank_mid_run_does_not_change_the_theory() {
    let ds = p2mdie_datasets::trains(16, 5);
    let fault_free = run_parallel(&ds.engine, &ds.examples, &recovering_cfg(3)).unwrap();
    assert!(fault_free.rank_losses.is_empty());
    assert!(!fault_free.stalled);

    // Rank 1's fabric dies after its 3rd send — mid-epoch, after real
    // pipeline traffic has flowed.
    let cfg = recovering_cfg(3).with_chaos(1, ChaosConfig::new(7).kill_after_sends(3));
    let healed = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();

    assert_eq!(healed.rank_losses, vec![1], "the death must be recorded");
    assert!(!healed.stalled);
    assert_eq!(
        decisions(&fault_free),
        decisions(&healed),
        "recovery changed the induced theory"
    );
    assert_eq!(fault_free.set_aside, healed.set_aside);
    assert!(
        healed.recovery_bytes > 0 && healed.recovery_messages > 0,
        "recovery traffic must be accounted separately"
    );
    assert_eq!(
        fault_free.recovery_bytes, 0,
        "a fault-free run spends nothing on recovery"
    );
}

/// Same guarantee under the §4.1 re-dealing strategy (the master re-deals
/// every epoch; recovery rides on the next deal).
#[test]
fn killed_rank_under_repartitioning_does_not_change_the_theory() {
    let ds = p2mdie_datasets::trains(16, 5);
    let cfg = recovering_cfg(3).with_strategy(Strategy::Redeal);
    let fault_free = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
    assert!(!fault_free.stalled);

    let killed = cfg
        .clone()
        .with_chaos(2, ChaosConfig::new(11).kill_after_sends(3));
    let healed = run_parallel(&ds.engine, &ds.examples, &killed).unwrap();
    assert_eq!(healed.rank_losses, vec![2]);
    assert!(!healed.stalled);
    assert_eq!(decisions(&fault_free), decisions(&healed));
}

/// A second death exceeds `max_rank_losses: 1` and must fail the run with
/// a rank-tagged error rather than hang or learn a wrong theory.
#[test]
fn losses_beyond_the_budget_fail_the_run() {
    let ds = p2mdie_datasets::trains(12, 5);
    let cfg = ParallelConfig::new(3, Width::Limit(10), 5)
        .with_recovery(RecoveryPolicy::Repartition { max_rank_losses: 0 })
        .with_chaos(1, ChaosConfig::new(3).kill_after_sends(1));
    let err = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("recovery budget") || msg.contains("rank"),
        "unhelpful error: {msg}"
    );
}

/// The recovery seam itself (the job's role arming recovery on every rank,
/// and index-tracked replies) must
/// not change what a fault-free run learns relative to the legacy
/// `Abort`-policy protocol.
#[test]
fn fault_free_recovering_run_matches_the_legacy_protocol() {
    let ds = p2mdie_datasets::trains(16, 5);
    let legacy = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(3, Width::Limit(10), 5),
    )
    .unwrap();
    let recovering = run_parallel(&ds.engine, &ds.examples, &recovering_cfg(3)).unwrap();
    assert_eq!(decisions(&legacy), decisions(&recovering));
    assert_eq!(legacy.epochs, recovering.epochs);
    assert_eq!(legacy.set_aside, recovering.set_aside);
}

/// Under the default `Abort` policy the config additions are inert: the
/// exact legacy code path runs and produces the same bytes and clocks.
#[test]
fn abort_policy_is_untouched_by_the_recovery_seam() {
    let ds = p2mdie_datasets::trains(12, 5);
    let base = ParallelConfig::new(2, Width::Limit(10), 5);
    let a = run_parallel(&ds.engine, &ds.examples, &base).unwrap();
    let b = run_parallel(
        &ds.engine,
        &ds.examples,
        &base.clone().with_recovery(RecoveryPolicy::Abort),
    )
    .unwrap();
    assert_eq!(a.theory, b.theory);
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.total_messages, b.total_messages);
    assert!((a.vtime - b.vtime).abs() < 1e-12);
    assert_eq!(b.recovery_bytes, 0);
    assert_eq!(b.rank_losses, Vec::<u32>::new());
}

/// PR 6 follow-up, pinned: a **second** rank death while the first
/// recovery is still quiescing (or draining) exceeds the protocol and must
/// surface as a clean rank-tagged [`ClusterError`] — never a hang and
/// never a partial theory. Sweeping rank 2's kill point across the window
/// around rank 1's death lands the second fault before, inside, and after
/// the quiesce, so every phase of the recovery is exercised: each run
/// either fully heals (decisions identical to the fault-free run) or fails
/// with an error that names a rank. The loss budget is 2, so the failures
/// observed here are protocol-window failures, not budget exhaustion.
#[test]
fn second_death_during_quiesce_fails_cleanly_or_heals_completely() {
    let ds = p2mdie_datasets::trains(12, 5);
    let cfg2 = |losses: u32| {
        ParallelConfig::new(3, Width::Limit(10), 5).with_recovery(RecoveryPolicy::Repartition {
            max_rank_losses: losses,
        })
    };
    let fault_free = run_parallel(&ds.engine, &ds.examples, &cfg2(2)).unwrap();
    assert!(!fault_free.stalled);
    let baseline = decisions(&fault_free);

    let (mut healed, mut failed) = (0u32, 0u32);
    for second_kill in 0..=13u64 {
        let cfg = cfg2(2)
            .with_chaos(1, ChaosConfig::new(7).kill_after_sends(3))
            .with_chaos(2, ChaosConfig::new(13).kill_after_sends(second_kill));
        match run_parallel(&ds.engine, &ds.examples, &cfg) {
            Ok(rep) => {
                healed += 1;
                assert!(!rep.stalled, "kill@{second_kill}: healed run stalled");
                assert_eq!(
                    decisions(&rep),
                    baseline,
                    "kill@{second_kill}: a double recovery changed the theory"
                );
                // A kill point beyond rank 2's total sends leaves it alive
                // (single-loss run); otherwise both deaths are recorded.
                assert!(
                    !rep.rank_losses.is_empty(),
                    "kill@{second_kill}: a healed run records its losses"
                );
            }
            Err(err) => {
                failed += 1;
                let msg = format!("{err}");
                assert!(
                    msg.contains("rank"),
                    "kill@{second_kill}: error must name a rank, got: {msg}"
                );
            }
        }
    }
    // The sweep must actually cross the quiesce window: some kill points
    // recover twice, some land inside the protocol's blind spot and fail.
    assert!(healed > 0, "no kill point double-recovered");
    assert!(failed > 0, "no kill point hit the quiesce/drain window");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever single rank dies, and whenever it dies, the learned theory
    /// never changes. (A kill point beyond the rank's total sends simply
    /// degenerates to the fault-free run, which must also match.)
    #[test]
    fn any_single_rank_kill_preserves_the_theory(
        rank in 1usize..=3,
        kill_after in 0u64..39,
        chaos_seed in 0u64..1000,
    ) {
        let ds = p2mdie_datasets::trains(12, 5);
        let fault_free = run_parallel(&ds.engine, &ds.examples, &recovering_cfg(3)).unwrap();
        let cfg = recovering_cfg(3)
            .with_chaos(rank, ChaosConfig::new(chaos_seed).kill_after_sends(kill_after));
        let healed = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
        prop_assert!(!healed.stalled);
        prop_assert_eq!(decisions(&fault_free), decisions(&healed));
    }
}
