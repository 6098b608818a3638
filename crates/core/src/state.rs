//! The state-model interface (paper Def. 2.1).
//!
//! A state model `S = ⟨|S|, V, A, ea⟩` is the formal interface through which
//! GIL interacts with program state. [`GilState`] is its Rust rendering:
//! the interpreter (Fig. 1) is written once against this trait and executes
//! both concretely and symbolically.
//!
//! The paper's *proper* state models expose distinguished actions
//! (`setVar`, `setStore`, `getStore`, `eval`, `assume`, `uSym`, `iSym`);
//! here those appear as trait methods rather than stringly-named actions,
//! with `assume` folded into [`GilState::branch_on`] (its only use in the
//! semantics is the two conditional-goto rules). Memory actions `α` remain
//! stringly-typed and are dispatched through
//! [`GilState::execute_action`].
//!
//! Beyond Def. 2.1 the trait carries only what the state model itself
//! must supply:
//!
//! - the compiled-code hooks of the bytecode backend, each equivalent to
//!   its tree-walk counterpart: [`GilState::eval_code`],
//!   [`GilState::guard_code`], [`GilState::set_slot`],
//!   [`GilState::action_code`] and [`GilState::execute_action_coded`];
//! - the checkpoint save/load hooks;
//! - [`GilState::solver`], the one accessor through which the
//!   exploration engine owns a run: the engine arms the deadline,
//!   journal and fault probe on that solver and disarms them at run end.
//!   State models never see the run.

use crate::checkpoint::{StateCtx, StateIoError};
use gillian_gil::serial::{ByteReader, Decoder, Encoder};
use gillian_gil::{EvalScratch, Expr, ExprCode, Frame, Ident};
use gillian_solver::Solver;

/// The branching result of a memory action on states: each branch pairs a
/// successor state with the action outcome (`Err` raises `E(v)`).
pub type ActionBranches<S, V> = Vec<(S, Result<V, V>)>;

/// The result of a fused guard evaluation ([`GilState::guard_code`]).
///
/// `Take` is the bytecode backend's fast lane: the guard decided without
/// forking, so the dispatch loop continues in place with no state clone
/// and no successor allocation. Semantically `Take(b)` is identical to
/// `Fork(vec![(self, b)])`.
#[derive(Clone, Debug)]
pub enum GuardEval<S: GilState> {
    /// The guard decided deterministically: continue in place.
    Take(bool),
    /// The guard forked: surviving successor states, each paired with the
    /// truth value it assumed (empty when no branch is feasible).
    Fork(Vec<(S, bool)>),
    /// The guard failed to evaluate.
    Fail(<S as GilState>::V),
}

/// A GIL state: the engine-facing interface of a (lifted) state model.
///
/// `V` is the state's value type — [`gillian_gil::Value`] concretely,
/// [`Expr`] symbolically. Errors are values of the same type (they flow
/// into the GIL error outcome `E(v)`), hence the pervasive
/// `Result<Self::V, Self::V>`.
///
/// The variable store `ρ` is a [`Frame`] of `V`s. Compiled code reads and
/// writes it by slot, in the layout of the procedure executing; the block
/// loop lays the frame out by that layout before it runs the procedure's
/// code, and the tree walk addresses it by name.
pub trait GilState: Clone + std::fmt::Debug + Sized {
    /// The values stored in and produced by this state.
    type V: Clone + std::fmt::Debug + std::fmt::Display;

    /// Evaluates an expression in the state's store (`evalₑ`).
    ///
    /// # Errors
    ///
    /// Returns the error value when evaluation fails (unbound variable,
    /// operator domain violation).
    fn eval(&self, e: &Expr) -> Result<Self::V, Self::V>;

    /// Assigns `v` to program variable `x` (`setVarₓ`).
    fn set_var(&mut self, x: &Ident, v: Self::V);

    /// The current store (`getStore`).
    fn store(&self) -> &Frame<Self::V>;

    /// Replaces the store (`setStore`).
    fn set_store(&mut self, store: Frame<Self::V>);

    /// Extracts a procedure identifier from an evaluated callee value.
    ///
    /// # Errors
    ///
    /// Returns an error value when `v` does not denote a procedure (for a
    /// symbolic state, when it is not a *literal* procedure identifier —
    /// dynamic dispatch must be resolved by compiled code before the call).
    fn resolve_proc(&self, v: &Self::V) -> Result<Ident, Self::V>;

    /// Branches on a boolean guard (the two `ifgoto` rules of Fig. 1,
    /// built from `assume ∘ eval`). Returns the surviving branches, each a
    /// successor state paired with the truth value it assumed. A concrete
    /// state returns exactly one branch; a symbolic state returns the
    /// satisfiable subset of `{true, false}`.
    ///
    /// # Errors
    ///
    /// Returns the error value when the guard fails to evaluate.
    fn branch_on(&self, e: &Expr) -> Result<Vec<(Self, bool)>, Self::V>;

    /// Allocates a fresh uninterpreted symbol (`uSym_j`).
    fn fresh_usym(&mut self, site: u32) -> Self::V;

    /// Allocates a fresh interpreted symbol (`iSym_j`): an arbitrary value
    /// concretely, a fresh logical variable symbolically.
    fn fresh_isym(&mut self, site: u32) -> Self::V;

    /// Executes memory action `name` (the `x := α(e)` rule). Each returned
    /// branch pairs a successor state with the action's outcome; an `Err`
    /// outcome raises the GIL error outcome `E(v)` on that branch.
    fn execute_action(self, name: &str, arg: Self::V) -> ActionBranches<Self, Self::V>;

    /// Evaluates a compiled expression site (the bytecode backend's
    /// `evalₑ`). Must agree with [`GilState::eval`] on
    /// [`ExprCode::source`] exactly — same values, same errors, same
    /// error order. The default does precisely that by delegating to the
    /// tree walk, so states that never override it (test doubles, hosted
    /// states) agree with the reference by construction.
    ///
    /// # Errors
    ///
    /// Returns the error value when evaluation fails, exactly as
    /// [`GilState::eval`] would.
    fn eval_code(&self, code: &ExprCode, _scratch: &mut EvalScratch) -> Result<Self::V, Self::V> {
        self.eval(code.source())
    }

    /// Branches on a compiled guard site (the bytecode `cmpgoto`
    /// superinstruction). Must be decision-equivalent to
    /// [`GilState::branch_on`] on [`ExprCode::source`]:
    /// [`GuardEval::Take`] may replace a deterministic single branch (it
    /// elides the state clone), but the surviving branch set and each
    /// branch's state must be identical. The default delegates to
    /// `branch_on`.
    fn guard_code(&self, code: &ExprCode, _scratch: &mut EvalScratch) -> GuardEval<Self> {
        match self.branch_on(code.source()) {
            Ok(branches) => GuardEval::Fork(branches),
            Err(v) => GuardEval::Fail(v),
        }
    }

    /// Assigns `v` to the variable in slot `slot` of the store's layout
    /// (the bytecode backend's `setVarₓ`). Must agree with
    /// [`GilState::set_var`] on that variable; the default delegates by
    /// name.
    fn set_slot(&mut self, slot: u32, v: Self::V) {
        let x = self.store().layout().name(slot).clone();
        self.set_var(&x, v);
    }

    /// The dense code this state's memory model assigns to action `name`,
    /// if any. Feeds the per-site action inline caches of compiled
    /// programs; `None` (the default) keeps every site on the
    /// stringly-named [`GilState::execute_action`] path.
    fn action_code(&self, _name: &str) -> Option<u16> {
        None
    }

    /// Executes the action behind a resolved inline cache. `code` is the
    /// value a prior [`GilState::action_code`] call returned for `name`;
    /// behavior must be identical to `execute_action(name, arg)`. The
    /// default ignores the code and delegates.
    fn execute_action_coded(
        self,
        _code: u16,
        name: &str,
        arg: Self::V,
    ) -> ActionBranches<Self, Self::V> {
        self.execute_action(name, arg)
    }

    /// Wraps an engine-generated message as an error value.
    fn error_value(&self, msg: &str) -> Self::V;

    /// The solver this state's path condition is decided by, if any. The
    /// exploration engine arms a run on it (interrupt, journal, fault
    /// probe), reads the run's solver counters from it, and
    /// disarms it at run end; the state itself never sees the run. The
    /// default is `None`: concrete states have no solver.
    fn solver(&self) -> Option<&Solver> {
        None
    }

    /// Serializes this state for a frontier checkpoint
    /// (`DESIGN.md` §14). Terms go through `enc` so the whole checkpoint
    /// shares one post-order term table. The default reports
    /// [`StateIoError::Unsupported`]: states that never checkpoint need
    /// not implement it.
    ///
    /// # Errors
    ///
    /// Reports [`StateIoError`] when the state (or a component of it, such
    /// as the language memory) does not support serialization.
    fn save_state(&self, _enc: &mut Encoder, _out: &mut Vec<u8>) -> Result<(), StateIoError> {
        Err(StateIoError::Unsupported(std::any::type_name::<Self>()))
    }

    /// Rebuilds a state from its [`GilState::save_state`] encoding,
    /// re-attaching it to the resuming process's machinery via `ctx`.
    ///
    /// # Errors
    ///
    /// Reports [`StateIoError`] on unsupported states or malformed bytes.
    fn load_state(
        _ctx: &StateCtx,
        _dec: &Decoder,
        _r: &mut ByteReader<'_>,
    ) -> Result<Self, StateIoError> {
        Err(StateIoError::Unsupported(std::any::type_name::<Self>()))
    }

    /// Serializes a store (used for the saved caller stores of checkpointed
    /// call stacks). Same default and contract as
    /// [`GilState::save_state`].
    ///
    /// # Errors
    ///
    /// Reports [`StateIoError`] when the store does not support
    /// serialization.
    fn save_store(
        _store: &Frame<Self::V>,
        _enc: &mut Encoder,
        _out: &mut Vec<u8>,
    ) -> Result<(), StateIoError> {
        Err(StateIoError::Unsupported(std::any::type_name::<
            Frame<Self::V>,
        >()))
    }

    /// Rebuilds a store from its [`GilState::save_store`] encoding.
    ///
    /// # Errors
    ///
    /// Reports [`StateIoError`] on unsupported stores or malformed bytes.
    fn load_store(
        _ctx: &StateCtx,
        _dec: &Decoder,
        _r: &mut ByteReader<'_>,
    ) -> Result<Frame<Self::V>, StateIoError> {
        Err(StateIoError::Unsupported(std::any::type_name::<
            Frame<Self::V>,
        >()))
    }
}
