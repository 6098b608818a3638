//! Shared random-program generator for the exploration property tests.
//!
//! Builds small branching GIL programs from a list of [`Op`] building
//! blocks; used by the engine-equivalence test (`explore_equiv.rs`) and
//! the Unknown-verdict semantics test (`unknown_semantics.rs`).

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use gillian_core::explore::{ExploreOutcome, ExploreResult};
use gillian_core::memory::{SymBranch, SymbolicMemory};
use gillian_core::symbolic::SymbolicState;
use gillian_gil::{Cmd, Expr, Proc, Prog};
use gillian_solver::{PathCondition, Solver};
use proptest::prelude::*;
use std::sync::Arc;

/// A heap-less memory: every action just echoes its argument.
#[derive(Clone, Debug, Default)]
pub struct NoMem;
impl SymbolicMemory for NoMem {
    fn execute_action(
        self,
        _: &str,
        arg: &Expr,
        pc: &PathCondition,
        _: &Solver,
    ) -> Vec<SymBranch<Self>> {
        vec![SymBranch::ok(NoMem, arg.clone(), pc.clone())]
    }
}

/// One building block of a random program. Variable indices are taken
/// modulo the symbols allocated so far (allocating one when none exist),
/// so every generated program is well-formed.
#[derive(Clone, Debug)]
pub enum Op {
    /// Allocate a fresh symbolic input.
    Sym,
    /// Two-way branch on `s_v < c`, bumping `acc` on the taken side.
    Branch(u8, i64),
    /// `acc := acc + k` — straight-line filler.
    Bump(i64),
    /// `assume s_v < c`: branch whose false side vanishes.
    Assume(u8, i64),
    /// `assert s_v ≠ c`: branch whose false side fails.
    FailIf(u8, i64),
}

pub fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Sym),
        3 => (0u8..4, -3i64..4).prop_map(|(v, c)| Op::Branch(v, c)),
        2 => (-5i64..5).prop_map(Op::Bump),
        2 => (0u8..4, 0i64..4).prop_map(|(v, c)| Op::Assume(v, c)),
        2 => (0u8..4, -3i64..4).prop_map(|(v, c)| Op::FailIf(v, c)),
    ]
}

/// Compiles an op list into a one-procedure GIL program.
pub fn build_prog(ops: &[Op]) -> Prog {
    let mut body = vec![Cmd::assign("acc", Expr::int(0))];
    let mut syms: Vec<String> = Vec::new();
    let alloc_sym = |body: &mut Vec<Cmd>, syms: &mut Vec<String>| {
        let name = format!("s{}", syms.len());
        body.push(Cmd::isym(&name, syms.len() as u32));
        syms.push(name);
    };
    for op in ops {
        // Ops that reference a symbol make sure one exists.
        if !matches!(op, Op::Sym | Op::Bump(_)) && syms.is_empty() {
            alloc_sym(&mut body, &mut syms);
        }
        match op {
            Op::Sym => alloc_sym(&mut body, &mut syms),
            Op::Bump(k) => {
                body.push(Cmd::assign("acc", Expr::pvar("acc").add(Expr::int(*k))));
            }
            Op::Branch(v, c) => {
                let s = &syms[*v as usize % syms.len()];
                let skip = body.len() + 2;
                body.push(Cmd::IfGoto(Expr::pvar(s).lt(Expr::int(*c)), skip));
                body.push(Cmd::assign("acc", Expr::pvar("acc").add(Expr::int(1))));
            }
            Op::Assume(v, c) => {
                let s = &syms[*v as usize % syms.len()];
                let skip = body.len() + 2;
                body.push(Cmd::IfGoto(Expr::pvar(s).lt(Expr::int(*c)), skip));
                body.push(Cmd::Vanish);
            }
            Op::FailIf(v, c) => {
                let s = &syms[*v as usize % syms.len()];
                let skip = body.len() + 2;
                body.push(Cmd::IfGoto(Expr::pvar(s).ne(Expr::int(*c)), skip));
                body.push(Cmd::Fail(Expr::str("hit")));
            }
        }
    }
    body.push(Cmd::Return(Expr::pvar("acc")));
    Prog::from_procs([Proc::new("main", [], body)])
}

/// A fresh symbolic state over the optimized solver.
pub fn state() -> SymbolicState<NoMem> {
    SymbolicState::new(Arc::new(Solver::optimized()))
}

/// A fresh symbolic state over an explicit solver.
pub fn state_with(solver: Arc<Solver>) -> SymbolicState<NoMem> {
    SymbolicState::new(solver)
}

/// Order-normalized summary of a result: sorted `(pc, outcome-tag)` pairs.
pub fn summary(r: &ExploreResult<SymbolicState<NoMem>>) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = r
        .paths
        .iter()
        .map(|p| {
            let tag = match &p.outcome {
                ExploreOutcome::Normal(v) => format!("N({v})"),
                ExploreOutcome::Error(v) => format!("E({v})"),
                ExploreOutcome::Vanished => "vanished".to_string(),
                ExploreOutcome::Truncated => "truncated".to_string(),
                ExploreOutcome::EngineError { payload, .. } => format!("engine-error({payload})"),
            };
            (p.state.pc.to_string(), tag)
        })
        .collect();
    pairs.sort();
    pairs
}
