//! Minimized regressions from the differential battery's first fixed-seed
//! run. Each test is the `generate::minimize` output for a seed whose
//! symbolic execution disagreed with its concrete replay — kept exactly as
//! shrunk, so the engine bug each one caught stays dead.
//!
//! Both seeds reduced to the same root cause: the simplifier folded
//! same-base comparisons `x + c₁ ⋈ x + c₂` to `c₁ ⋈ c₂`, which is
//! unsound under GIL's wrapping integer arithmetic — `x - 3 < x` is
//! false at `x = i64::MIN + 2`. The folded guard never reached the path
//! condition, so the oracle's boundary counter-model steered the concrete
//! replay down the arm the symbolic run thought impossible.

use gillian_core::difftest::run_differential;
use gillian_core::explore::ExploreConfig;
use gillian_core::generate::{build_prog, GenOp, MemDialect};
use gillian_core::memory::{ConcreteMemory, SymBranch, SymbolicMemory};
use gillian_gil::{Expr, Value};
use gillian_solver::{PathCondition, Solver};
use gillian_telemetry::Journal;
use std::sync::Arc;

#[derive(Clone, Debug, Default)]
struct EchoSym;
impl SymbolicMemory for EchoSym {
    fn execute_action(
        self,
        _: &str,
        arg: &Expr,
        pc: &PathCondition,
        _: &Solver,
    ) -> Vec<SymBranch<Self>> {
        vec![SymBranch::ok(EchoSym, arg.clone(), pc.clone())]
    }
}

#[derive(Clone, Debug, Default)]
struct EchoConc;
impl ConcreteMemory for EchoConc {
    fn execute_action(&mut self, _: &str, arg: Value) -> Result<Value, Value> {
        Ok(arg)
    }
}

fn assert_agrees(ops: &[GenOp]) {
    let prog = build_prog(ops, MemDialect::None);
    let cfg = ExploreConfig {
        journal: Journal::disabled(),
        ..Default::default()
    };
    let report =
        run_differential::<EchoSym, EchoConc>(&prog, "main", Arc::new(Solver::optimized()), cfg);
    assert!(
        report.agreed(),
        "regression resurfaced: {:?}\nprogram:\n{prog}",
        report.divergences
    );
    assert!(report.replayed > 0, "regression program was never replayed");
}

/// Battery seed 1592590343, minimized from 16 ops to 4. The shift mints
/// an `i64`-boundary accumulator; the second `helper` call's guard
/// `(s0 - C) < s0` was folded `true` mathematically while the concrete
/// wrap made it false. Also pins the fold-guard overflow: the old "safe
/// offset" check used `abs()`, which wraps (and panics in debug) at
/// exactly `i64::MIN`.
#[test]
fn boundary_shift_then_call_chain() {
    assert_agrees(&[
        GenOp::Branch { sym: 0, k: -8 },
        GenOp::Arith {
            op: 6, // Shl
            sym: 0,
            k: -2,
            use_sym: false,
        },
        GenOp::Call { sym: 2 },
        GenOp::Call { sym: 1 },
    ]);
}

/// Battery seed 1592590388, minimized from 16 ops to 4. No shifts at all:
/// a plain `acc - 3 < acc` guard inside `helper`, with the model search
/// choosing `s0 = i64::MIN + 2` so the subtraction wraps to `i64::MAX`.
/// Proof that the offset-size guard on the old fold could never be
/// sufficient — the *base* sits at the boundary, not the offset.
#[test]
fn small_offset_comparison_at_boundary_base() {
    assert_agrees(&[
        GenOp::Call { sym: 1 },
        GenOp::ListRound { sym: 0 },
        GenOp::Bump(-6),
        GenOp::Call { sym: 2 },
    ]);
}
