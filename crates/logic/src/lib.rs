//! First-order logic substrate for the `p2mdie` workspace.
//!
//! This crate plays the role YAP Prolog played for the April ILP system in
//! Fonseca et al. (CLUSTER 2005): it provides term representation,
//! unification, θ-subsumption, an indexed clause store, and a depth- and
//! step-bounded SLD resolution engine that *meters its own inference steps*
//! (the fuel used by the cluster substrate's virtual-time model).
//!
//! The engine is deliberately not a full Prolog: ILP coverage testing only
//! requires proving (mostly ground) goals against a largely extensional
//! background knowledge base, with arithmetic builtins and bounded search.
//!
//! # Quick tour
//!
//! ```
//! use p2mdie_logic::{Program, ProofLimits, Prover};
//!
//! let mut prog = Program::new();
//! prog.consult(
//!     "parent(ann, bob).
//!      parent(bob, carl).
//!      grandparent(X, Z) :- parent(X, Y), parent(Y, Z).",
//! )
//! .unwrap();
//!
//! let goal = prog.parse_query("grandparent(ann, carl)").unwrap();
//! let prover = Prover::new(prog.kb(), ProofLimits::default());
//! let (proved, _stats) = prover.prove_ground(&goal);
//! assert!(proved);
//! ```

pub mod arena;
pub mod builtins;
pub mod clause;
pub mod fxhash;
pub mod kb;
pub mod parser;
pub mod program;
pub mod prover;
pub mod snapshot;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod theta;
pub mod wire;

pub use arena::{TermArena, TermId};
pub use clause::{
    Clause, CompiledClause, CompiledGoals, CompiledGoalsRef, CompiledLiteral, LitKind, Literal,
    PredId,
};
pub use kb::KnowledgeBase;
/// The process-wide hot counters the prover's probes report to, re-exported
/// so the layers built on the prover count next to it.
pub use p2mdie_obs::metrics::hot;
pub use parser::{ParseError, Parser};
pub use program::Program;
pub use prover::{ProofLimits, ProofStats, Prover};
pub use snapshot::{KbSnapshot, PredSnapshot, SnapshotError};
pub use subst::Bindings;
pub use symbol::{SymbolId, SymbolTable};
pub use term::{Term, VarId, F64};
pub use theta::{subsumes, variants};

// The reference prover of `tests/oracle`, which the unit tests of `kb.rs`
// and `prover.rs` hold the product to; it names the crate the way an outside
// caller does.
#[cfg(test)]
extern crate self as p2mdie_logic;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
