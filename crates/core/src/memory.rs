//! Memory model interfaces (paper Defs. 2.3 and 2.4).
//!
//! A tool developer instantiates Gillian by implementing these two traits
//! for their language's memory, plus a compiler from the language to GIL.
//! The engine lifts the memories to full state models automatically
//! (`ConcreteState`/`SymbolicState`).
//!
//! Action arguments and results are single values; actions taking several
//! inputs receive them as a GIL list (as in the paper's `mutate([x, p, e])`).
//!
//! ## Errors vs. branches
//!
//! A *concrete* action is deterministic here (the paper allows sets; every
//! real instantiation is deterministic) and either returns a value or a
//! *language error value* which the interpreter raises as the GIL error
//! outcome `E(v)` — this is how, e.g., MiniC surfaces undefined behaviour.
//!
//! A *symbolic* action returns a set of branches, each with an outcome
//! (value or error), the successor memory and the successor's path
//! condition (Def. 2.4's `µ̂.α(ê, π̂) ⇝ (µ̂′, ê′, π̂′)`, with the
//! condition already conjoined: `π̂ ∧ π̂′`). The memory is responsible for
//! only returning branches whose constraint is satisfiable with the
//! current path condition — it receives the solver for exactly that
//! purpose — and the engine adopts each branch's condition without
//! asking again (Def. 2.6, `[Action]`).
//!
//! ## Each branch is decided once
//!
//! The engine keeps one invariant: the path condition of a live state
//! has been decided. It is empty, or the query that extended it checked
//! it (a guard's `branch_on`, a harness's `SymbolicState::assume`, an
//! action's branch). A memory therefore asks the solver at most once per
//! branch, through [`decide`]: a constraint that simplifies to a literal
//! needs no query at all, any other is conjoined and checked, and the
//! checked condition is the one the successor keeps. A branch the memory
//! decided is never asked about again.
//!
//! ## Ownership of successor memories
//!
//! A symbolic action *consumes* the memory it runs on, as
//! [`crate::state::GilState::execute_action`] consumes its state: the
//! state being replaced no longer holds the old memory, so the memory's
//! copy-on-write maps are uniquely owned and a write mutates them in
//! place. The last successor an action builds takes the memory by move;
//! every earlier sibling is a `clone()`, which shares the maps and pays
//! its own copy on its first write ([`successors`] implements the rule).
//! A single-successor write therefore costs the map operation, not a copy
//! of the heap.
//!
//! ## Building a memory on `SymMap`
//!
//! Most symbolic memories are partial maps keyed on symbolic expressions:
//! While cells are `(property, location) ⇀ value`, MiniJS cells
//! `(object, key) ⇀ value` and its metadata `location ⇀ tag`. [`SymMap`]
//! is that map, written once. It groups its entries (by property, by
//! object, or in the one group `()`) and owns the three things every
//! action on such a map needs:
//!
//! - the group walk ([`SymMap::group`]): the keys of a group, in key
//!   order, literal keys first;
//! - the alias decision ([`SymMap::aliases`], built on [`Alias`]): the
//!   keys an address may equal under the path condition, each with its
//!   simplified equality, then the simplified constraint that it equals
//!   none of them. A memory without a `SymMap` (MiniC's byte runs) calls
//!   [`Alias`] on its own candidates;
//! - the literal probe ([`SymMap::literal`]): when the address and every
//!   key of its group are literals, the alias decision folds to a map
//!   lookup, so a fast path in [`SymbolicMemory::execute_action_coded`]
//!   resolves the action without it and without a solver query.
//!
//! What stays with each memory is what the paper's Def. 2.4 asks of it:
//! its actions, as a private `Edit` per branch applied through
//! [`successors`], its action codes and its error values. Arguments are
//! parsed with [`expr_args`], [`value_args`] or, without copying,
//! [`ArgList`]; branch constraints are decided with [`decide`].

use crate::checkpoint::StateIoError;
use gillian_gil::serial::{ByteReader, Decoder, Encoder};
use gillian_gil::{Expr, Value};
use gillian_solver::{PathCondition, Solver};
use std::sync::Arc;

mod sym_map;

pub use sym_map::{Alias, SymMap};

/// A concrete memory model `M = ⟨|M|, A, ea⟩` (Def. 2.3).
pub trait ConcreteMemory: Clone + std::fmt::Debug + Default {
    /// Executes action `name` with argument `arg`.
    ///
    /// # Errors
    ///
    /// Returns the language error value (raised as `E(v)`) when the action
    /// fails — e.g. lookup of an absent cell, C undefined behaviour.
    fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value>;

    /// The dense code this memory assigns to action `name`, if any. Feeds
    /// the bytecode backend's per-site inline caches; `None` (the
    /// default) keeps the site on the stringly-named path.
    fn action_code(&self, _name: &str) -> Option<u16> {
        None
    }

    /// Executes the action behind a resolved inline cache: `code` is what
    /// [`ConcreteMemory::action_code`] returned for `name`. Must behave
    /// identically to `execute_action(name, arg)`; the default delegates.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`ConcreteMemory::execute_action`].
    fn execute_action_coded(&mut self, _code: u16, name: &str, arg: Value) -> Result<Value, Value> {
        self.execute_action(name, arg)
    }
}

/// One branch of a symbolic action's outcome.
#[derive(Clone, Debug)]
pub struct SymBranch<M> {
    /// The successor memory `µ̂′`.
    pub memory: M,
    /// The value outcome `ê′`: `Ok` continues execution, `Err` raises the
    /// GIL error outcome `E(v)`.
    pub outcome: Result<Expr, Expr>,
    /// The successor's path condition `π̂ ∧ π̂′`, decided: the state's own
    /// condition when the branch learned nothing, otherwise the condition
    /// [`decide`] checked. The engine adopts it as it is (Def. 2.6,
    /// `[Action]` case).
    pub pc: PathCondition,
}

impl<M> SymBranch<M> {
    /// A successful branch under the decided condition `pc`.
    pub fn ok(memory: M, value: Expr, pc: PathCondition) -> Self {
        SymBranch {
            memory,
            outcome: Ok(value),
            pc,
        }
    }

    /// An error branch under the decided condition `pc`.
    pub fn err(memory: M, error: Expr, pc: PathCondition) -> Self {
        SymBranch {
            memory,
            outcome: Err(error),
            pc,
        }
    }
}

/// Materializes an action's successors from branches decided before any
/// memory was built: branch `i` applies its edit (the `memory` field of
/// `branches[i]`) to its own copy of `mem`. Every copy but the last is a
/// `clone()` of the unedited `mem`; the last takes `mem` itself, so a
/// single-successor action edits uniquely owned maps in place. No
/// branches drop `mem`.
pub fn successors<M: Clone, E>(
    mem: M,
    branches: Vec<SymBranch<E>>,
    mut apply: impl FnMut(&mut M, E),
) -> Vec<SymBranch<M>> {
    let n = branches.len();
    let mut mem = Some(mem);
    branches
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            let mut m = if i + 1 == n {
                mem.take().expect("memory moved once, into the last branch")
            } else {
                mem.clone().expect("memory live until the last branch")
            };
            apply(&mut m, b.memory);
            SymBranch {
                memory: m,
                outcome: b.outcome,
                pc: b.pc,
            }
        })
        .collect()
}

/// Decides a branch under `pc`, a condition the engine has already
/// decided (the [`SymbolicMemory::execute_action`] precondition):
/// `constraint` is simplified under `pc`, conjoined and checked, and the
/// checked condition is returned for the successor to keep; `None` when
/// it is unsatisfiable. A constraint that simplifies to a literal, or to
/// a conjunct `pc` already has, asks nothing: `true` and the conjunct
/// keep `pc`, `false` drops the branch.
pub fn decide(pc: &PathCondition, solver: &Solver, constraint: &Expr) -> Option<PathCondition> {
    // `simplify` is the identity on literals in every tier.
    let constraint = match constraint.as_bool() {
        Some(_) => constraint.clone(),
        None => solver.simplify(pc, constraint),
    };
    if let Some(keep) = constraint.as_bool() {
        return keep.then(|| pc.clone());
    }
    let mut next = pc.clone();
    next.push(constraint);
    // A conjunct `pc` already holds is pushed as nothing: still decided.
    if next.len() == pc.len() {
        return Some(next);
    }
    solver.check_sat(&next).possibly_sat().then_some(next)
}

/// A symbolic action's argument list, borrowed rather than copied out:
/// the bytecode evaluator folds an all-literal list into one
/// `Value::List`, any other list stays an `Expr::List`.
pub enum ArgList<'a> {
    /// A list of expressions.
    Exprs(&'a [Expr]),
    /// A folded list of literals.
    Values(&'a [Value]),
}

impl<'a> ArgList<'a> {
    /// The `n` elements of `arg`, if it is an `n`-element list.
    pub fn of(arg: &'a Expr, n: usize) -> Option<Self> {
        match arg {
            Expr::List(es) if es.len() == n => Some(ArgList::Exprs(es)),
            Expr::Val(Value::List(vs)) if vs.len() == n => Some(ArgList::Values(vs)),
            _ => None,
        }
    }

    /// Element `i`, if it is a literal.
    pub fn literal(&self, i: usize) -> Option<&'a Value> {
        match self {
            ArgList::Exprs(es) => es[i].as_value(),
            ArgList::Values(vs) => Some(&vs[i]),
        }
    }

    /// Element `i`, if it is a literal string.
    pub fn str(&self, i: usize) -> Option<&'a Arc<str>> {
        match self.literal(i)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Element `i` as an expression.
    pub fn expr(&self, i: usize) -> Expr {
        match self {
            ArgList::Exprs(es) => es[i].clone(),
            ArgList::Values(vs) => Expr::Val(vs[i].clone()),
        }
    }
}

/// The `n` elements of a symbolic action's argument list (folded or
/// not), or `None` when `arg` is not an `n`-element list; the memory
/// reports that with its own error value.
pub fn expr_args(arg: &Expr, n: usize) -> Option<Vec<Expr>> {
    let args = ArgList::of(arg, n)?;
    Some((0..n).map(|i| args.expr(i)).collect())
}

/// The `n` elements of a concrete action's argument list, or `None` when
/// `arg` is not an `n`-element list.
pub fn value_args(arg: &Value, n: usize) -> Option<Vec<Value>> {
    arg.as_list()
        .filter(|items| items.len() == n)
        .map(<[Value]>::to_vec)
}

/// A symbolic memory model `M̂ = ⟨|M̂|, A, êa⟩` (Def. 2.4).
///
/// `Send` is a supertrait because symbolic states (which own their memory)
/// migrate between worker threads when [`crate::explore::explore_with`]
/// runs several workers. Memories are values, not shared
/// structures, so this costs implementations nothing in practice.
pub trait SymbolicMemory: Clone + std::fmt::Debug + Default + Send {
    /// The instantiation's language tag, used by telemetry to label this
    /// memory's action latencies in traces and reports (`while`,
    /// `minijs`, `minic`, …).
    fn language() -> &'static str {
        "unknown"
    }

    /// Executes action `name` with (simplified) symbolic argument `arg`
    /// under path condition `pc`, returning all feasible branches.
    ///
    /// Precondition: `pc` is decided. The engine runs actions only on
    /// live states, whose condition the query that created them checked
    /// (module docs), so a branch that learns nothing keeps `pc` without
    /// asking. Implementations decide every other branch with `solver`,
    /// once ([`decide`], [`Alias`]), and return the checked condition in
    /// [`SymBranch::pc`]; the engine adopts it without re-checking.
    ///
    /// The memory is consumed: the last branch's successor reuses it and
    /// earlier branches get copy-on-write clones (module docs). Callers
    /// that must keep the memory clone it first.
    fn execute_action(
        self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>>;

    /// The dense code this memory assigns to action `name`, if any. Feeds
    /// the bytecode backend's per-site inline caches; `None` (the
    /// default) keeps the site on the stringly-named path.
    fn action_code(&self, _name: &str) -> Option<u16> {
        None
    }

    /// Executes the action behind a resolved inline cache: `code` is what
    /// [`SymbolicMemory::action_code`] returned for `name`. The branch
    /// set must be identical to `execute_action(name, arg, pc, solver)`;
    /// the default delegates. Implementations may use the pre-resolved
    /// code to skip string dispatch and take literal-argument fast paths
    /// that are unreachable from the tree walk (keeping it a
    /// byte-identical differential reference). The While,
    /// MiniJS and MiniC memories all do: when the address and every
    /// location it could alias are literals, they resolve the action by
    /// map lookup, and the one branch keeps `pc`, as the general path's
    /// folded alias decision does, without a query. Same precondition as
    /// [`SymbolicMemory::execute_action`], and consumes the memory like
    /// it.
    fn execute_action_coded(
        self,
        _code: u16,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        self.execute_action(name, arg, pc, solver)
    }

    /// The logical variables occurring in the memory. Used by the
    /// soundness checkers to complete a model into a full logical
    /// environment (an lvar unconstrained by the path condition may take
    /// any value).
    fn lvars(&self) -> std::collections::BTreeSet<gillian_gil::LVar> {
        std::collections::BTreeSet::new()
    }

    /// Serializes this memory for a frontier checkpoint (`DESIGN.md` §14);
    /// terms go through `enc` so the checkpoint shares one term table.
    /// The default reports [`StateIoError::Unsupported`] — a memory that
    /// never checkpoints need not implement it, and one that *does* must,
    /// so forgetting can never silently drop memory state.
    ///
    /// # Errors
    ///
    /// Reports [`StateIoError`] when the memory does not support
    /// serialization.
    fn save(&self, _enc: &mut Encoder, _out: &mut Vec<u8>) -> Result<(), StateIoError> {
        Err(StateIoError::Unsupported(std::any::type_name::<Self>()))
    }

    /// Rebuilds a memory from its [`SymbolicMemory::save`] encoding.
    ///
    /// # Errors
    ///
    /// Reports [`StateIoError`] on unsupported memories or malformed
    /// bytes.
    fn load(_dec: &Decoder, _r: &mut ByteReader<'_>) -> Result<Self, StateIoError> {
        Err(StateIoError::Unsupported(std::any::type_name::<Self>()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, Default)]
    struct Nop;
    impl SymbolicMemory for Nop {
        fn execute_action(
            self,
            _: &str,
            arg: &Expr,
            pc: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            vec![SymBranch::ok(Nop, arg.clone(), pc.clone())]
        }
    }

    #[test]
    fn successors_reuse_the_memory_for_the_last_branch_only() {
        let mem = std::sync::Arc::new(vec![0u8]);
        let ptr = std::sync::Arc::as_ptr(&mem);
        let edits = (1..=3u8)
            .map(|e| SymBranch::ok(e, Expr::int(e.into()), PathCondition::new()))
            .collect();
        let out = successors(mem, edits, |m, e| std::sync::Arc::make_mut(m).push(e));
        let contents: Vec<&[u8]> = out.iter().map(|b| b.memory.as_slice()).collect();
        assert_eq!(contents, [&[0, 1][..], &[0, 2], &[0, 3]]);
        assert_eq!(
            std::sync::Arc::as_ptr(&out[2].memory),
            ptr,
            "last edits in place"
        );
        assert_ne!(std::sync::Arc::as_ptr(&out[0].memory), ptr);
        assert_eq!(out[1].outcome, Ok(Expr::int(2)));
    }

    #[test]
    fn sym_branch_constructors() {
        let b = SymBranch::ok(Nop, Expr::int(1), PathCondition::new());
        assert!(b.pc.is_empty());
        assert!(b.outcome.is_ok());
        let e = SymBranch::err(Nop, Expr::str("boom"), PathCondition::new());
        assert!(e.outcome.is_err());
    }

    #[test]
    fn literal_constraints_are_decided_without_a_query() {
        let solver = Solver::optimized();
        let x = Expr::lvar(gillian_gil::LVar(0));
        let pc: PathCondition = [x.clone().lt(Expr::int(5))].into_iter().collect();
        assert!(solver.check_sat(&pc).possibly_sat());
        let before = solver.stats().sat_queries;
        assert_eq!(decide(&pc, &solver, &Expr::tt()), Some(pc.clone()));
        assert_eq!(decide(&pc, &solver, &Expr::ff()), None);
        assert_eq!(solver.stats().sat_queries, before);
        let next = decide(&pc, &solver, &x.clone().gt(Expr::int(2))).expect("feasible");
        assert_eq!(next.len(), 2);
        assert!(
            next.has_solve_ctx(),
            "the successor keeps the checked chain"
        );
        assert_eq!(decide(&pc, &solver, &x.gt(Expr::int(9))), None);
        assert_eq!(solver.stats().sat_queries, before + 2);
    }
}
