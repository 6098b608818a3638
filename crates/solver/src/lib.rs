#![warn(missing_docs)]

//! # First-order solver over the GIL value domain
//!
//! The Gillian paper discharges path conditions with an off-the-shelf SMT
//! solver plus an in-house first-order simplifier; this crate is the
//! equivalent substrate, built from scratch (see `DESIGN.md` §2 for the
//! substitution rationale). It provides:
//!
//! - [`interrupt`] — cooperative wall-clock deadlines and cancellation
//!   tokens, polled by the satisfiability checker (and by the exploration
//!   engines one crate up) so a pathological query degrades to
//!   [`SatResult::Unknown`] instead of hanging a run;
//! - [`simplify`] — an algebraic simplifier / constant folder that shares
//!   its operator semantics with the concrete interpreter (no divergence
//!   between folding and running by construction);
//! - [`typing`] — light type inference over expressions;
//! - [`sat`] — a satisfiability checker for conjunctions of GIL boolean
//!   expressions, combining substitution-closure equality reasoning
//!   ([`uf`]), interval reasoning ([`intervals`]), type conflicts, and
//!   bounded case splitting over disjunctions;
//! - [`model`] — a bounded, *self-verifying* model finder: every model it
//!   returns has been checked by concretely evaluating the full path
//!   condition, so bug reports backed by a model are true positives;
//! - [`Solver`] — the façade used by the symbolic engine, with result
//!   caching and per-query statistics (the paper credits better caching
//!   and simplification for Gillian-JS being ≈2× faster than JaVerT 2.0;
//!   [`SolverConfig::baseline`] turns those off to reproduce the baseline).
//!
//! ## Incompleteness policy
//!
//! [`SatResult::Unknown`] is treated as "possibly satisfiable" by the
//! engine: unknown path conditions keep being explored. This direction is
//! the sound one for bug-finding because the engine *never* reports a bug
//! without a concrete, verified counter-model (paper §3: symbolic testing
//! has no false positives).

mod ctx;
pub mod interrupt;
pub mod intervals;
pub mod model;
pub mod pathcond;
pub mod persistent;
pub mod sat;
pub mod simplify;
pub mod solver;
pub mod typing;
pub mod uf;

pub use interrupt::{CancelToken, Interrupt};
pub use model::{find_model_escalating, Model, ModelBudget};
pub use pathcond::{PathCondition, PcKey};
pub use persistent::PSet;
pub use sat::SatResult;
pub use solver::{FaultProbe, SatFault, Simplification, Solver, SolverConfig, SolverStats};
