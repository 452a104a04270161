//! # p2mdie — a pipelined data-parallel algorithm for ILP
//!
//! A from-scratch Rust reproduction of Fonseca, Silva, Santos Costa &
//! Camacho, *"A pipelined data-parallel algorithm for ILP"*, IEEE CLUSTER
//! 2005 — the p²-mdie algorithm plus the entire stack it ran on:
//!
//! | paper component | this workspace |
//! |---|---|
//! | YAP Prolog (deduction) | [`logic`] — terms, unification, θ-subsumption, bounded SLD prover |
//! | April ILP system | [`ilp`] — modes, saturation, refinement, breadth-first search, covering |
//! | LAM/MPI + Beowulf cluster | [`cluster`] — thread-backed message passing with a virtual-time model |
//! | p²-mdie (paper §4) | [`core`] — master/worker protocol, pipelined `learn_rule'`, rule bag |
//! | carcinogenesis / mesh / pyrimidines | [`datasets`] — synthetic generators with Table 1's sizes |
//! | 5-fold CV + paired t-test | [`eval`] — folds, accuracy, t-test, table rendering, sweeps |
//! | (instrumentation) | [`obs`] — flight recorder: virtual-time tracing of every rank on either transport, metric snapshots, exports |
//!
//! ## Quickstart
//!
//! ```
//! use p2mdie::core::driver::{run_parallel, ParallelConfig};
//! use p2mdie::ilp::settings::Width;
//!
//! // A toy family-tree problem: learn daughter/2 on 4 workers.
//! let ds = p2mdie::datasets::family(4, 42);
//! let cfg = ParallelConfig::new(4, Width::Limit(10), 42);
//! let report = run_parallel(&ds.engine, &ds.examples, &cfg).unwrap();
//! assert!(!report.theory.is_empty());
//! println!(
//!     "learned {} rules in {} epochs, T(4) = {:.2} virtual s",
//!     report.theory.len(),
//!     report.epochs,
//!     report.vtime
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/
//! reproduce.rs` for the binary that regenerates every table and figure of
//! the paper.

pub use p2mdie_cluster as cluster;
pub use p2mdie_core as core;
pub use p2mdie_datasets as datasets;
pub use p2mdie_eval as eval;
pub use p2mdie_ilp as ilp;
pub use p2mdie_logic as logic;
pub use p2mdie_obs as obs;
