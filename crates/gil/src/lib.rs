#![warn(missing_docs)]

//! # GIL: the Gillian Intermediate Language
//!
//! GIL is a simple goto language with top-level procedures, parametric on a
//! set of *actions* through which programs interact with their memories
//! (paper §2.1). This crate defines the language itself:
//!
//! - [`Value`] — GIL values: integers, numbers, strings, booleans,
//!   uninterpreted symbols, types, procedure identifiers, and lists;
//! - [`Expr`] — expressions over values, program variables and logical
//!   variables, with unary, binary and n-ary operators;
//! - [`Cmd`], [`Proc`], [`Prog`] — commands, procedures and programs;
//! - concrete evaluation of operators ([`ops`]) and expressions
//!   ([`eval`]), shared between the concrete interpreter and the
//!   solver's constant folder;
//! - variable stores laid out in slots ([`Frame`], [`Layout`]), shared by
//!   the concrete and symbolic states and by compiled code;
//! - a pretty-printer ([`std::fmt::Display`] on all syntax) and a text
//!   parser ([`parser`]) for the `.gil` format.
//!
//! Actions themselves are *not* defined here: they are strings resolved by
//! the state model a program runs under (see the `gillian-core` crate).
//!
//! ## Example
//!
//! ```
//! use gillian_gil::{Cmd, Expr, Proc, Prog};
//!
//! // proc main() { x := 21 + 21; return x }
//! let main = Proc::new(
//!     "main",
//!     [],
//!     vec![
//!         Cmd::assign("x", Expr::int(21).add(Expr::int(21))),
//!         Cmd::Return(Expr::pvar("x")),
//!     ],
//! );
//! let prog = Prog::from_procs([main]);
//! assert!(prog.proc("main").is_some());
//! ```

pub mod compile;
pub mod eval;
pub mod expr;
pub mod frame;
pub mod hashing;
pub mod intern;
pub mod ops;
pub mod parser;
pub mod prog;
pub mod serial;
pub mod value;

pub use compile::{
    compile, CompiledProc, CompiledProg, EvalScratch, ExprCode, ExprKind, Instr, ProcHint,
};
pub use expr::{Expr, LVar};
pub use frame::{Frame, Layout};
pub use hashing::{FxBuildHasher, PrehashedBuildHasher};
pub use intern::{ExprList, InternStats, Term};
pub use ops::{BinOp, EvalError, UnOp};
pub use prog::{Cmd, Ident, Label, Proc, Prog};
pub use serial::{ByteReader, Decoder, Encoder, WireError};
pub use value::{Sym, TypeTag, Value, F64};
