#![warn(missing_docs)]

//! # Gillian core: the parametric symbolic execution engine
//!
//! This crate is the paper's primary contribution (PLDI 2020, §2–§3): a
//! symbolic execution engine for GIL that is *parametric on the memory
//! model* of the target language.
//!
//! ## Architecture
//!
//! - A tool developer implements [`ConcreteMemory`] and [`SymbolicMemory`]
//!   for their language — a set of *actions* over their memory type
//!   (paper Defs. 2.3/2.4).
//! - The engine lifts those memories to full *state models* with the
//!   concrete and symbolic state constructors
//!   ([`ConcreteState`]/[`SymbolicState`], Defs. 2.5/2.6), adding the
//!   variable store, the built-in allocator (Def. 2.2), and — symbolically
//!   — the path condition and solver integration.
//! - The GIL interpreter ([`interp`], Fig. 1) runs over any [`GilState`],
//!   so the same rules execute both concretely and symbolically.
//! - [`explore`] drives whole-program bounded symbolic execution;
//!   [`testing`] packages it as symbolic unit testing with *verified*
//!   counter-models and concrete replay (the computational content of the
//!   soundness theorem, §3);
//! - [`restriction`] defines the paper's novel restriction operator `⇃`
//!   and its laws; [`soundness`] provides memory interpretation functions
//!   (Def. 3.7) and a differential checker used by instantiations to
//!   validate the two memory lemmas (MA-RS / MA-RC) empirically.
//!
//! ## Example
//!
//! Instantiations live in their own crates (`gillian-while`, `gillian-js`,
//! `gillian-c`); see `gillian-while` for the smallest complete example.

pub mod allocator;
pub mod checkpoint;
pub mod concrete;
pub mod difftest;
pub mod exec;
pub mod explore;
pub mod faults;
pub mod generate;
pub mod interp;
pub mod memory;
mod panic_guard;
pub mod restriction;
pub mod soundness;
pub mod state;
pub mod symbolic;
pub mod testing;

pub use allocator::{ConcAllocator, SymAllocator};
pub use checkpoint::{
    load_checkpoint, save_checkpoint, CheckpointConfig, CheckpointData, FrontierItem, PathSummary,
    ResumeError, SaveError, StateCtx, StateIoError,
};
pub use concrete::ConcreteState;
pub use difftest::{
    run_differential, run_differential_with, DifftestReport, Divergence, InterpMemoryCheck,
    MemoryCheck, MismatchClass, NoMemoryCheck, SkippedPath,
};
pub use exec::{step_block, BlockProfile, BLOCK_MAX};
pub use explore::{
    explore, explore_resume, replay_path, ExploreConfig, ExploreDiagnostics, ExploreOutcome,
    ExploreResult, PathResult, ReplayError, ResumedExplore, SearchStrategy,
};
pub use faults::{FaultKind, FaultPlan};
pub use generate::{build_prog, gen_ops, minimize, GenOp, MemDialect, Rng};
pub use gillian_solver::{CancelToken, Interrupt};
pub use interp::{Config, Final, Outcome};
pub use memory::{ConcreteMemory, SymBranch, SymbolicMemory};
pub use restriction::Restrict;
pub use state::GilState;
pub use symbolic::SymbolicState;
pub use testing::{BugReport, SymTestOutcome, TestSuiteResult};
