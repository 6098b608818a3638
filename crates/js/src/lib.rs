#![warn(missing_docs)]

//! # Gillian-JS (MiniJS): the dynamic-object instantiation
//!
//! Reproduces the Gillian-JS instantiation of paper §4.1 with **MiniJS**,
//! a JavaScript-like guest language (see `DESIGN.md` §2 for the
//! substitution rationale):
//!
//! - [`mem`] — the JS memory model: heap `(location, key) ⇀ value` plus a
//!   metadata table, with eight actions and the paper's branching
//!   symbolic `getProp` (`SGetProp`);
//! - [`runtime`] — GIL procedures implementing JS truthiness, operator
//!   overloading, `typeof` and checked property access (the analogue of
//!   Gillian-JS's compiled internal functions);
//! - [`ast`]/[`parser`]/[`compile`] — the MiniJS front end;
//! - [`interp_fn`] — the memory interpretation function and the empirical
//!   MA-RS/MA-RC checks;
//! - [`buckets`] — the Buckets guest library (11 data structures) and its
//!   74-test symbolic suite reproducing Table 1.
//!
//! ## Example
//!
//! ```
//! use gillian_js::symbolic_test;
//!
//! let outcome = symbolic_test(r#"
//!     function main() {
//!         var x = symb_number();
//!         assume(x > 0);
//!         var box = { value: x };
//!         assert(box.value > 0);
//!         return box.value;
//!     }
//! "#).unwrap();
//! assert!(outcome.verified());
//! ```

pub mod ast;
pub mod buckets;
pub mod compile;
pub mod interp_fn;
pub mod mem;
pub mod parser;
pub mod runtime;
pub mod values;

use gillian_core::explore::ExploreConfig;
use gillian_core::testing::{run_test_with_replay, SymTestOutcome};
use gillian_solver::Solver;
use std::sync::Arc;

pub use compile::compile_module;
pub use interp_fn::JsInterpretation;
pub use mem::{JsConcMemory, JsSymMemory};
pub use parser::parse_module;

/// Parses, compiles and symbolically tests a MiniJS program's `main`
/// function with the optimized solver, replaying any bugs concretely.
///
/// # Errors
///
/// Returns a parse error description for malformed source.
pub fn symbolic_test(source: &str) -> Result<SymTestOutcome<JsSymMemory>, String> {
    symbolic_test_entry(source, "main")
}

/// As [`symbolic_test`], from an arbitrary entry function.
///
/// # Errors
///
/// Returns a parse error description for malformed source.
pub fn symbolic_test_entry(
    source: &str,
    entry: &str,
) -> Result<SymTestOutcome<JsSymMemory>, String> {
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
) -> Result<SymTestOutcome<JsSymMemory>, String> {
    let module = parse_module(source).map_err(|e| e.to_string())?;
    let prog = compile_module(&module);
    Ok(run_test_with_replay::<JsSymMemory, JsConcMemory>(
        &prog,
        entry,
        Arc::new(Solver::optimized()),
        cfg,
    ))
}
