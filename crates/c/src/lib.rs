#![warn(missing_docs)]

//! # Gillian-C (MiniC): the CompCert-memory instantiation
//!
//! Reproduces the Gillian-C instantiation of paper §4.2 with **MiniC**, a
//! C-like guest language over a CompCert-style memory (see `DESIGN.md` §2
//! for the substitution rationale):
//!
//! - [`mem`] — the C memory model: separated blocks, block-offset
//!   pointers, byte-granular memory values `[v, k, n]`, permissions,
//!   chunked load/store, and undefined-behaviour detection;
//! - [`chunks`] — memory chunks (size/kind/signedness of accesses);
//! - [`types`] — MiniC types and LP64 struct layout;
//! - [`ast`]/[`parser`]/[`compile`] — the typed MiniC front end
//!   (pointer-arithmetic scaling, field offsets, chunk selection);
//! - [`interp_fn`] — the memory interpretation function and empirical
//!   MA-RS/MA-RC checks;
//! - [`collections`] — the Collections guest library (10 data structures)
//!   and its 161-test symbolic suite reproducing Table 2, plus the buggy
//!   variants reproducing the paper's §4.2 bug findings.
//!
//! ## Example
//!
//! ```
//! use gillian_c::symbolic_test;
//!
//! let outcome = symbolic_test(r#"
//!     long main() {
//!         long x = symb_long();
//!         assume(x > 0);
//!         long *cell = malloc(8);
//!         *cell = x;
//!         assert(*cell > 0);
//!         free(cell);
//!         return 0;
//!     }
//! "#).unwrap();
//! assert!(outcome.verified());
//! ```

pub mod ast;
pub mod chunks;
pub mod collections;
pub mod compile;
pub mod interp_fn;
pub mod mem;
pub mod parser;
pub mod types;
pub mod values;

use gillian_core::explore::ExploreConfig;
use gillian_core::testing::{run_test_with_replay, SymTestOutcome};
use gillian_solver::Solver;
use std::sync::Arc;

pub use compile::compile_unit;
pub use interp_fn::CInterpretation;
pub use mem::{CConcMemory, CSymMemory};
pub use parser::parse_unit;

/// Parses, compiles and symbolically tests a MiniC program's `main`
/// function with the optimized solver, replaying any bugs concretely.
///
/// # Errors
///
/// Returns a parse or compile error description for malformed source.
pub fn symbolic_test(source: &str) -> Result<SymTestOutcome<CSymMemory>, String> {
    symbolic_test_entry(source, "main")
}

/// As [`symbolic_test`], from an arbitrary entry function.
///
/// # Errors
///
/// Returns a parse or compile error description for malformed source.
pub fn symbolic_test_entry(
    source: &str,
    entry: &str,
) -> Result<SymTestOutcome<CSymMemory>, String> {
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
/// Returns a parse or compile error description for malformed source.
pub fn symbolic_test_with(
    source: &str,
    entry: &str,
    cfg: ExploreConfig,
) -> Result<SymTestOutcome<CSymMemory>, String> {
    let module = parse_unit(source).map_err(|e| e.to_string())?;
    let prog = compile_unit(&module).map_err(|e| e.to_string())?;
    Ok(run_test_with_replay::<CSymMemory, CConcMemory>(
        &prog,
        entry,
        Arc::new(Solver::optimized()),
        cfg,
    ))
}
