#![warn(missing_docs)]

//! # Gillian-While: the paper's running example instantiation
//!
//! A simple While language with *static objects* (paper §2.2/§2.4),
//! instantiating Gillian end-to-end:
//!
//! - [`ast`] + [`parser`] — the While surface language (assignment,
//!   `if`/`else`, `while`, static calls, `assume`/`assert`, object
//!   creation/disposal, property lookup/mutation, and `symb()` for
//!   symbolic inputs);
//! - [`compile`] — the While→GIL compiler of Fig. 2;
//! - [`mem`] — the concrete and symbolic memory models of Fig. 3, over the
//!   action set `A_While = {lookup, mutate, dispose}`;
//! - [`interp_fn`] — the memory interpretation function `I_W` of §3.3,
//!   hooking the instantiation into the engine's differential soundness
//!   checkers.
//!
//! ## Example
//!
//! ```
//! use gillian_while::symbolic_test;
//!
//! let outcome = symbolic_test(r#"
//!     proc main() {
//!         x := symb();
//!         assume (x > 0);
//!         o := { value: x };
//!         v := o.value;
//!         assert (v > 0);
//!         return v;
//!     }
//! "#).unwrap();
//! assert!(outcome.verified());
//! ```

pub mod ast;
pub mod compile;
pub mod interp_fn;
pub mod mem;
pub mod parser;

use gillian_core::explore::ExploreConfig;
use gillian_core::testing::{run_test_with_replay, SymTestOutcome};
use gillian_solver::Solver;
use std::sync::Arc;

pub use compile::compile_program;
pub use interp_fn::WhileInterpretation;
pub use mem::{WhileConcMemory, WhileSymMemory};
pub use parser::parse_program;

/// Parses, compiles and symbolically tests a While program's `main`
/// procedure with the optimized solver, replaying any bugs concretely.
///
/// # Errors
///
/// Returns a parse error description for malformed source.
pub fn symbolic_test(source: &str) -> Result<SymTestOutcome<WhileSymMemory>, String> {
    symbolic_test_entry(source, "main")
}

/// As [`symbolic_test`], from an arbitrary entry procedure.
///
/// # Errors
///
/// Returns a parse error description for malformed source.
pub fn symbolic_test_entry(
    source: &str,
    entry: &str,
) -> Result<SymTestOutcome<WhileSymMemory>, String> {
    symbolic_test_with(source, entry, ExploreConfig::default())
}

/// As [`symbolic_test_entry`], with explicit exploration limits — in
/// particular the resilience knobs [`ExploreConfig::deadline`]
/// (wall-clock budget: over-budget paths come back truncated, with the
/// overrun counted in the result's diagnostics) and
/// [`ExploreConfig::cancel`] (cooperative cancellation from another
/// thread).
///
/// # Errors
///
/// Returns a parse error description for malformed source.
pub fn symbolic_test_with(
    source: &str,
    entry: &str,
    cfg: ExploreConfig,
) -> Result<SymTestOutcome<WhileSymMemory>, String> {
    let module = parse_program(source).map_err(|e| e.to_string())?;
    let prog = compile_program(&module);
    Ok(run_test_with_replay::<WhileSymMemory, WhileConcMemory>(
        &prog,
        entry,
        Arc::new(Solver::optimized()),
        cfg,
    ))
}
