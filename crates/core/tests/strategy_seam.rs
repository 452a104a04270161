//! The [`Strategy`] switch from the outside: the default configuration is
//! the paper's data pipeline, and the non-default strategy run on a real
//! `p2mdie-worker` TCP mesh matches its in-process twin.
//!
//! That a data-pipeline run computes what it always did — theory, epochs,
//! set-aside, virtual time, per-rank steps, traffic — is held by the
//! recorded tables of `tests/golden_accounting.rs` (workers × seeds ×
//! widths on trains, every run mode on mesh). They replaced the
//! differential test that lived here against a hand-composed
//! `run_cluster` + `run_master` + `run_worker` run: that composition was
//! refactoring scaffolding for the PR that introduced the strategies, and
//! no caller outside this file used it.

use p2mdie_core::driver::{run_parallel, ParallelConfig, TransportKind};
use p2mdie_core::remote::TcpConfig;
use p2mdie_core::Strategy;
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::settings::Width;

/// Pinning `eval_threads` to 1 keeps the runs independent of the
/// machine's core count.
fn pinned_engine(ds: &p2mdie_datasets::Dataset) -> IlpEngine {
    let mut engine = ds.engine.clone();
    engine.settings.eval_threads = 1;
    engine
}

/// The default `ParallelConfig` is the `DataPipeline` strategy, so a caller
/// that never heard of strategies gets the paper's protocol — same report
/// as asking for it explicitly.
#[test]
fn default_config_is_the_data_pipeline_strategy() {
    let ds = p2mdie_datasets::trains(12, 5);
    let engine = pinned_engine(&ds);
    let implicit = run_parallel(
        &engine,
        &ds.examples,
        &ParallelConfig::new(2, Width::Limit(10), 7),
    )
    .expect("implicit run");
    let explicit = run_parallel(
        &engine,
        &ds.examples,
        &ParallelConfig::new(2, Width::Limit(10), 7).with_strategy(Strategy::DataPipeline),
    )
    .expect("explicit run");
    assert_eq!(implicit.theory, explicit.theory);
    assert_eq!(implicit.epochs, explicit.epochs);
    assert_eq!(implicit.vtime, explicit.vtime);
    assert_eq!(implicit.total_bytes, explicit.total_bytes);
    assert_eq!(implicit.worker_steps, explicit.worker_steps);
}

/// Cross-strategy smoke over real worker processes: the non-default
/// strategy run on a localhost TCP mesh induces the same theory, epochs,
/// and per-rank steps as its in-process twin.
#[test]
fn strategies_over_tcp_match_in_process_runs() {
    let worker_bin = env!("CARGO_BIN_EXE_p2mdie-worker");
    let ds = p2mdie_datasets::trains(12, 5);
    let engine = pinned_engine(&ds);

    let cfg = ParallelConfig::new(2, Width::Limit(10), 5)
        .with_strategy(Strategy::SearchPartition)
        .with_kb_shipping();
    let reference = run_parallel(&engine, &ds.examples, &cfg).expect("in-process run");

    let tcp_cfg = cfg.with_transport(TransportKind::Tcp(TcpConfig::with_worker_bin(worker_bin)));
    let tcp = run_parallel(&engine, &ds.examples, &tcp_cfg).expect("TCP run");

    assert_eq!(reference.theory, tcp.theory, "theory drifted");
    assert_eq!(reference.epochs, tcp.epochs);
    assert_eq!(reference.set_aside, tcp.set_aside);
    assert_eq!(
        reference.worker_steps, tcp.worker_steps,
        "per-rank steps drifted"
    );
    assert_eq!(tcp.dropped_sends, 0);
}
