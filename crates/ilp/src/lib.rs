//! Sequential MDIE ILP engine — the April analogue of the `p2mdie`
//! workspace (Fonseca et al., CLUSTER 2005).
//!
//! The crate implements the full Mode-Directed Inverse Entailment pipeline
//! the paper's sequential baseline (Figures 1–2) consists of:
//!
//! * [`modes`] — `modeh`/`modeb` language bias;
//! * [`bottom`] — bottom-clause saturation (`build_msh`);
//! * [`refine`] — Progol-style refinement over ⊥e's literal lattice;
//! * [`coverage`] — rule evaluation with inference-step metering;
//! * [`search`] — top-down breadth-first search with a node budget;
//! * [`memo`] — the coverage memo a covering loop carries through its
//!   searches;
//! * [`mdie`] — the covering loop (one rule per epoch);
//! * [`engine`] — the [`IlpEngine`] facade used by the parallel algorithm.
//!
//! Every expensive operation reports the inference steps it consumed; the
//! cluster substrate turns those into virtual seconds (the virtual-time
//! substitution, stated in `p2mdie_cluster::vtime`).
//!
//! ```
//! use p2mdie_ilp::{Examples, IlpEngine, ModeSet, Settings};
//! use p2mdie_logic::{KnowledgeBase, SymbolTable};
//! use p2mdie_logic::clause::Literal;
//! use p2mdie_logic::term::Term;
//!
//! let syms = SymbolTable::new();
//! let mut kb = KnowledgeBase::new(syms.clone());
//! for i in 1..=10i64 {
//!     if i % 2 == 0 {
//!         kb.assert_fact(Literal::new(syms.intern("even"), vec![Term::Int(i)]));
//!     }
//! }
//! let modes = ModeSet::parse(&syms, "tgt(+num)", &[(1, "even(+num)")]).unwrap();
//! let engine = IlpEngine::new(kb, modes, Settings { min_pos: 1, ..Settings::default() });
//! let tgt = syms.intern("tgt");
//! let examples = Examples::new(
//!     vec![Literal::new(tgt, vec![Term::Int(2)])],
//!     vec![Literal::new(tgt, vec![Term::Int(3)])],
//! );
//! let run = engine.run_sequential(&examples);
//! assert_eq!(run.theory.len(), 1);
//! ```

// The differential oracle under `tests/oracle` is also compiled into the unit
// tests (see `memo.rs`); it names the crate the way an outside caller does.
#[cfg(test)]
extern crate self as p2mdie_ilp;

pub mod bitset;
pub mod bottom;
pub mod coverage;
pub mod engine;
pub mod examples;
pub mod mdie;
pub mod memo;
pub mod modes;
pub mod refine;
pub mod search;
pub mod settings;

pub use bitset::Bitset;
pub use bottom::{saturate, BottomClause, BottomLiteral};
pub use coverage::{evaluate_rule, Coverage};
pub use engine::IlpEngine;
pub use examples::Examples;
pub use mdie::{run_sequential, LearnedRule, SequentialOutcome};
pub use memo::{CoverageMemo, MemoStats};
pub use modes::{ModeArg, ModeDecl, ModeSet};
pub use refine::{LatticeSlice, RuleShape};
pub use search::{search_rules, ScoredRule, Search, SearchOutcome};
pub use settings::{ScoreFn, Settings, Width};
