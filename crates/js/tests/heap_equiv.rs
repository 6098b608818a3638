//! The MiniJS heap at the memory level: the literal fast paths of
//! `JsSymMemory::execute_action_coded` against the general
//! `execute_action`, with a fresh solver per leg. Both legs must return
//! equal branch lists (outcome, successor condition and successor
//! memory) and equal solver counts. Actions are chained: each runs on the
//! first successor of the last, so later actions see written heaps.
//!
//! Each leg asks once per branch it decides, and neither asks about a
//! branch whose constraint folds to a literal, so raw query and cache-hit
//! counts must agree. The general path also simplifies its alias
//! constraints, so simplification counts differ by design.

use gillian_core::memory::{SymBranch, SymbolicMemory};
use gillian_gil::{Expr, LVar, Sym, Value};
use gillian_js::values::undefined_expr;
use gillian_js::JsSymMemory;
use gillian_solver::{PathCondition, Solver};
use proptest::prelude::*;

fn loc(i: u64) -> Expr {
    Expr::Val(Value::Sym(Sym(Sym::FIRST_FRESH + i)))
}

/// Mostly literal locations, some logical variables.
fn arb_loc() -> impl Strategy<Value = Expr> {
    prop_oneof![
        4 => (0u64..4).prop_map(loc),
        1 => (0u64..2).prop_map(|i| Expr::lvar(LVar(i))),
    ]
}

/// Addresses: the locations above, plus `undefined`, which is no object.
fn arb_addr() -> impl Strategy<Value = Expr> {
    prop_oneof![6 => arb_loc(), 1 => Just(undefined_expr())]
}

/// Literal keys of several types, and symbolic ones.
fn arb_key() -> impl Strategy<Value = Expr> {
    prop_oneof![
        3 => (0u8..3).prop_map(|i| Expr::str(format!("k{i}"))),
        2 => (0u8..3).prop_map(|i| Expr::num(i as f64)),
        1 => (0i64..2).prop_map(Expr::int),
        1 => (2u64..4).prop_map(|i| Expr::lvar(LVar(i))),
        1 => Just(Expr::lvar(LVar(2)).add(Expr::int(1))),
    ]
}

fn arb_value() -> impl Strategy<Value = Expr> {
    prop_oneof![
        3 => (0u8..3).prop_map(|i| Expr::num(i as f64)),
        1 => Just(Expr::lvar(LVar(4))),
    ]
}

/// An argument list as the evaluators build it: with `fold`, an
/// all-literal list is one `Value::List`, as the bytecode backend passes
/// it; otherwise it stays a list of expressions.
fn arg_list(parts: Vec<Expr>, fold: bool) -> Expr {
    let values: Option<Vec<Value>> = parts.iter().map(|e| e.as_value().cloned()).collect();
    match values {
        Some(vs) if fold => Expr::Val(Value::List(vs)),
        _ => Expr::list(parts),
    }
}

/// `(action, argument)` for all eight actions, plus wrong arities.
fn arb_action() -> impl Strategy<Value = (&'static str, Expr)> {
    let pair = |name: &'static str| {
        (arb_addr(), arb_key(), any::<bool>())
            .prop_map(move |(l, k, fold)| (name, arg_list(vec![l, k], fold)))
    };
    prop_oneof![
        1 => ((0u64..6).prop_map(loc), any::<bool>()).prop_map(|(l, fold)| {
            ("newObj", arg_list(vec![l, Expr::str("Object")], fold))
        }),
        1 => arb_addr().prop_map(|l| ("delObj", l)),
        3 => pair("getProp"),
        3 => (arb_addr(), arb_key(), arb_value(), any::<bool>())
            .prop_map(|(l, k, v, fold)| ("setProp", arg_list(vec![l, k, v], fold))),
        2 => pair("delProp"),
        2 => pair("hasProp"),
        1 => arb_addr().prop_map(|l| ("getMeta", l)),
        1 => (arb_addr(), any::<bool>())
            .prop_map(|(l, fold)| ("setMeta", arg_list(vec![l, Expr::str("Array")], fold))),
        1 => (proptest::sample::select(vec!["getProp", "setProp", "setMeta"]), arb_addr())
            .prop_map(|(name, l)| (name, Expr::list([l]))),
    ]
}

/// Path condition `i` over the location `#0` and the key `#2`: none,
/// pinning or excluding an object, pinning a key, unsat. Each leg builds
/// its own: a path condition carries solve contexts, which a shared one
/// would carry from the first leg to the second.
fn pc_of(i: u8) -> PathCondition {
    let mut pc = PathCondition::new();
    let (x, k) = (Expr::lvar(LVar(0)), Expr::lvar(LVar(2)));
    match i {
        0 => {}
        1 => pc.push(x.eq(loc(0))),
        2 => pc.push(x.ne(loc(1))),
        3 => pc.push(k.eq(Expr::str("k1"))),
        _ => pc.push(Expr::ff()),
    }
    pc
}

/// Runs `name` as the bytecode backend does: through the coded entry
/// point when the action has a code.
fn coded(
    m: JsSymMemory,
    name: &str,
    arg: &Expr,
    pc: &PathCondition,
    solver: &Solver,
) -> Vec<SymBranch<JsSymMemory>> {
    match m.action_code(name) {
        Some(code) => m.execute_action_coded(code, name, arg, pc, solver),
        None => m.execute_action(name, arg, pc, solver),
    }
}

/// The solver counters both legs must agree on (module docs).
fn query_counts(solver: &Solver) -> [u64; 5] {
    let s = solver.stats();
    [
        s.sat_queries,
        s.cache_hits,
        s.incremental_hits,
        s.sat_unknowns,
        s.model_searches,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn coded_actions_match_the_general_path(
        objects in proptest::collection::vec(arb_loc(), 0..4),
        cells in proptest::collection::vec((arb_loc(), arb_key(), arb_value()), 0..8),
        actions in proptest::collection::vec(arb_action(), 1..8),
        pc in 0u8..5,
    ) {
        let mut m = JsSymMemory::default();
        for l in objects {
            m.insert_object(l, Expr::str("Object"));
        }
        for (l, k, v) in cells {
            m.insert_cell(l, k, v);
        }
        for (name, arg) in actions {
            let (general_solver, coded_solver) = (Solver::optimized(), Solver::optimized());
            let general = m.clone().execute_action(name, &arg, &pc_of(pc), &general_solver);
            let fast = coded(m.clone(), name, &arg, &pc_of(pc), &coded_solver);
            prop_assert_eq!(general.len(), fast.len(), "{}({})", name, arg);
            for (g, c) in general.iter().zip(&fast) {
                prop_assert_eq!(&g.outcome, &c.outcome, "{}({})", name, arg);
                prop_assert_eq!(&g.pc, &c.pc, "{}({})", name, arg);
                prop_assert_eq!(&g.memory, &c.memory, "{}({})", name, arg);
            }
            prop_assert_eq!(
                query_counts(&general_solver),
                query_counts(&coded_solver),
                "{}({})",
                name,
                arg
            );
            match fast.into_iter().next() {
                Some(b) => m = b.memory,
                None => break,
            }
        }
    }
}
