//! Each action branch is decided once, and its successor keeps the
//! condition that decision checked.
//!
//! Branching While, MiniJS and MiniC actions on symbolic addresses run
//! through `SymbolicState`, on the coded and the stringly-named entry
//! points, under a condition the state decided first (as every live
//! state's is). Every successor's path condition must then be an
//! exact-cache hit: one query, answered by the cache, no solve; and the
//! successors that learned a conjunct must hold the very chain nodes
//! their deciding queries solved, with the solve contexts frozen on
//! them. Pushing the constraint again would mint a fresh node with no
//! context, whose conjunct may even carry a fresh intern id, and miss
//! the cache.

use gillian::c::chunks::Chunk;
use gillian::c::CSymMemory;
use gillian::core::{GilState, SymbolicMemory, SymbolicState};
use gillian::gil::{Expr, LVar, Sym, TypeTag, Value};
use gillian::js::JsSymMemory;
use gillian::solver::Solver;
use gillian::while_lang::WhileSymMemory;
use std::sync::Arc;

fn loc(i: u64) -> Expr {
    Expr::Val(Value::Sym(Sym(Sym::FIRST_FRESH + i)))
}

fn lvar(i: u64) -> Expr {
    Expr::lvar(LVar(i))
}

/// A state over `memory` whose condition `assume` decided.
fn state<M: SymbolicMemory>(memory: M, assumed: &[Expr]) -> (SymbolicState<M>, Arc<Solver>) {
    let solver = Arc::new(Solver::optimized());
    let mut st = SymbolicState::with_memory(solver.clone(), memory);
    for e in assumed {
        assert!(st.assume(e), "{e} is satisfiable");
    }
    (st, solver)
}

/// Runs `name(arg)` through both entry points and checks that it
/// branches and that every successor's condition is an exact-cache hit.
fn every_successor_is_a_cache_hit<M: SymbolicMemory>(
    memory: M,
    assumed: &[Expr],
    name: &str,
    arg: Expr,
) {
    let code = memory.action_code(name);
    for coded in [false, true] {
        let (st, solver) = state(memory.clone(), assumed);
        let parent_len = st.pc.len();
        let successors = match (coded, code) {
            (true, Some(code)) => st.execute_action_coded(code, name, arg.clone()),
            _ => st.execute_action(name, arg.clone()),
        };
        assert!(
            successors.len() > 1,
            "{name}({arg}) branches: {successors:?}"
        );
        // A solve that ends in a clean `Sat` freezes its context on the
        // node it solved (a case split or a cache hit freezes none), so
        // adopted chains show it and re-pushed ones cannot.
        let learned = successors.iter().filter(|(s, _)| s.pc.len() > parent_len);
        let frozen = learned
            .clone()
            .filter(|(s, _)| s.pc.has_solve_ctx())
            .count();
        assert!(
            learned.count() == 0 || frozen > 0,
            "{name}({arg}): no successor holds its deciding query's chain"
        );
        for (succ, outcome) in &successors {
            let before = solver.stats();
            assert!(solver.check_sat(&succ.pc).possibly_sat());
            let after = solver.stats();
            let what = format!("{name}({arg}) -> {outcome:?} under {}", succ.pc);
            assert_eq!(after.sat_queries, before.sat_queries + 1, "{what}");
            assert_eq!(
                after.cache_hits,
                before.cache_hits + 1,
                "{what}: not a cache hit"
            );
            assert_eq!(after.incremental_hits, before.incremental_hits, "{what}");
        }
    }
}

#[test]
fn while_alias_successors_keep_their_decided_condition() {
    let mut m = WhileSymMemory::default();
    m.insert(loc(0), "a", Expr::int(1));
    m.insert(loc(1), "a", Expr::int(2));
    m.insert(lvar(1), "a", Expr::int(3));
    let x = lvar(0);
    let assumed = [x.clone().ne(loc(2))];
    let a = Expr::str("a");
    every_successor_is_a_cache_hit(
        m.clone(),
        &assumed,
        "lookup",
        Expr::list([x.clone(), a.clone()]),
    );
    every_successor_is_a_cache_hit(
        m.clone(),
        &assumed,
        "mutate",
        Expr::list([x.clone(), a, Expr::int(4)]),
    );
    every_successor_is_a_cache_hit(m, &assumed, "dispose", x);
}

#[test]
fn minijs_alias_successors_keep_their_decided_condition() {
    let mut m = JsSymMemory::default();
    for i in 0..2 {
        m.insert_object(loc(i), Expr::str("Object"));
        m.insert_cell(loc(i), Expr::str("k"), Expr::num(i as f64));
        m.insert_cell(loc(i), lvar(2), Expr::num(7.0));
    }
    let (obj, key) = (lvar(0), lvar(1));
    let assumed = [obj.clone().ne(loc(3))];
    for (name, arg) in [
        ("getProp", Expr::list([obj.clone(), key.clone()])),
        ("getProp", Expr::list([loc(0), key.clone()])),
        (
            "setProp",
            Expr::list([obj.clone(), key.clone(), Expr::num(1.0)]),
        ),
        ("delProp", Expr::list([obj.clone(), Expr::str("k")])),
        ("getMeta", obj.clone()),
        ("hasProp", Expr::list([obj.clone(), key.clone()])),
    ] {
        every_successor_is_a_cache_hit(m.clone(), &assumed, name, arg);
    }
}

#[test]
fn minic_offset_successors_keep_their_decided_condition() {
    let b = Expr::Val(Value::Sym(Sym(Sym::FIRST_FRESH)));
    let mut m = CSymMemory::default();
    m.register_block(Sym(Sym::FIRST_FRESH), 16);
    let chunk = Chunk::int(8).to_expr();
    let solver = Solver::optimized();
    let pc = gillian::solver::PathCondition::new();
    for off in [0, 8] {
        let arg = Expr::list([chunk.clone(), b.clone(), Expr::int(off), Expr::int(off)]);
        m = m
            .execute_action("store", &arg, &pc, &solver)
            .remove(0)
            .memory;
    }
    let off = lvar(0);
    let assumed = [
        off.clone().type_of().eq(Expr::type_tag(TypeTag::Int)),
        Expr::int(-8).le(off.clone()),
    ];
    every_successor_is_a_cache_hit(
        m.clone(),
        &assumed,
        "load",
        Expr::list([chunk.clone(), b.clone(), off.clone()]),
    );
    every_successor_is_a_cache_hit(
        m.clone(),
        &assumed,
        "store",
        Expr::list([chunk, b.clone(), off.clone(), Expr::int(5)]),
    );
    every_successor_is_a_cache_hit(m, &assumed, "free", Expr::list([b, off]));
}
