//! Strategies and property bodies for the MiniC heap batteries, shared by
//! `crates/c/tests/heap_equiv.rs` (CI-sized) and the root package's
//! `tests/c_heap.rs` (smoke-sized, so that the root test run covers the
//! C heap).
//!
//! - [`coded_matches_general`]: the literal fast paths of
//!   `CSymMemory::execute_action_coded` against the general
//!   `execute_action`, with a fresh solver per leg: equal branch lists
//!   (outcome, successor condition, memory and its byte view) and equal
//!   raw solver query counts.
//! - [`symbolic_matches_concrete`]: on literal arguments the symbolic and
//!   concrete heaps agree action by action, in outcome and in the
//!   whole-block `loadBytes` view of every block.

use gillian_c::chunks::Chunk;
use gillian_c::values::POISON;
use gillian_c::{CConcMemory, CSymMemory};
use gillian_core::memory::{ConcreteMemory, SymBranch, SymbolicMemory};
use gillian_gil::{Expr, LVar, Sym, TypeTag, Value};
use gillian_solver::{PathCondition, Solver};
use proptest::prelude::*;

/// Blocks the actions address; the last is never allocated.
const BLOCKS: u64 = 3;

fn blk(i: u64) -> Sym {
    Sym(Sym::FIRST_FRESH + i)
}

/// A heap action on literal arguments, or with symbolic parts in the
/// offset and value where `symbolic` strategies put them.
#[derive(Clone, Debug)]
pub struct Action {
    name: &'static str,
    parts: Vec<Expr>,
}

impl Action {
    /// The argument as the evaluators build it: with `fold`, every list
    /// of literals is one `Value::List`, as the bytecode backend passes
    /// it; otherwise lists stay lists of expressions.
    fn arg(&self, fold: bool) -> Expr {
        let arg = Expr::list(self.parts.clone());
        if fold {
            folded(&arg)
        } else {
            arg
        }
    }

    /// The argument as a value; every part must be literal.
    fn value_arg(&self) -> Value {
        match self.arg(true) {
            Expr::Val(v) => v,
            other => panic!("{}: symbolic argument {other}", self.name),
        }
    }
}

/// `e` with every list of literals folded into a `Value::List`.
fn folded(e: &Expr) -> Expr {
    match e {
        Expr::List(items) => {
            let items: Vec<Expr> = items.iter().map(folded).collect();
            match items.iter().map(|e| e.as_value().cloned()).collect() {
                Some(values) => Expr::Val(Value::List(values)),
                None => Expr::list(items),
            }
        }
        other => other.clone(),
    }
}

fn block(i: u64) -> Expr {
    Expr::Val(Value::Sym(blk(i)))
}

/// Mostly the first block, so that actions meet each other's bytes.
fn arb_block() -> impl Strategy<Value = Expr> {
    prop_oneof![6 => Just(0), 1 => Just(1), 1 => Just(BLOCKS - 1)].prop_map(block)
}

/// Integer chunks, mostly the 8 bytes every workload's accesses use.
fn arb_chunk() -> impl Strategy<Value = Expr> {
    let size = prop_oneof![2 => Just(8u8), 1 => proptest::sample::select(vec![1u8, 2, 4])];
    (size, any::<bool>()).prop_map(|(n, signed)| {
        if signed {
            Chunk::int(n).to_expr()
        } else {
            Chunk::uint(n).to_expr()
        }
    })
}

/// Literal offsets in and around 16-byte blocks, mostly where 4- and
/// 8-byte values start; with `symbolic`, also `#x + c`.
fn arb_offset(symbolic: bool) -> BoxedStrategy<Expr> {
    let literal = prop_oneof![
        3 => proptest::sample::select(vec![0i64, 8]).prop_map(Expr::int),
        1 => proptest::sample::select(vec![4i64, 12]).prop_map(Expr::int),
        1 => (-2i64..18).prop_map(Expr::int),
    ];
    if symbolic {
        prop_oneof![
            3 => literal,
            1 => (0i64..9).prop_map(|c| Expr::lvar(LVar(0)).add(Expr::int(c))),
            1 => Just(Expr::lvar(LVar(0))),
        ]
        .boxed()
    } else {
        literal.boxed()
    }
}

/// Stored values: small and wrapping integers; with `symbolic`, also a
/// logical variable.
fn arb_value(symbolic: bool) -> BoxedStrategy<Expr> {
    let literal = prop_oneof![
        3 => (-3i64..4).prop_map(Expr::int),
        1 => Just(Expr::int(1234)),
        1 => Just(Expr::int(i64::MIN)),
    ];
    if symbolic {
        prop_oneof![4 => literal, 1 => Just(Expr::lvar(LVar(1)))].boxed()
    } else {
        literal.boxed()
    }
}

/// The bytes of a `storeBytes`: holes, and consecutive bytes of stored
/// values — whole values (as `memcpy` copies them), fragments from their
/// middle, and bytes past their value's end.
fn arb_bytes() -> impl Strategy<Value = Expr> {
    let value = || prop_oneof![3 => (0i64..3).prop_map(Expr::int), 1 => Just(Expr::int(1234))];
    let size = || proptest::sample::select(vec![1i64, 2, 4, 8]);
    let bytes = |v: Expr, ks: std::ops::Range<i64>, n: i64| -> Vec<Expr> {
        ks.map(|k| Expr::list([v.clone(), Expr::int(k), Expr::int(n)]))
            .collect()
    };
    let piece = prop_oneof![
        1 => (1usize..3).prop_map(|len| vec![Expr::Val(Value::Sym(POISON)); len]),
        2 => (value(), size()).prop_map(move |(v, n)| bytes(v, 0..n, n)),
        2 => (value(), 0i64..9, size(), prop_oneof![2 => 1i64..3, 1 => 1i64..9])
            .prop_map(move |(v, k, n, len)| bytes(v, k..k + len, n)),
    ];
    proptest::collection::vec(piece, 1..3).prop_map(|pieces| Expr::list(pieces.concat()))
}

/// `storeBytes` offsets: mostly inside the 8-byte values at 0 and 8, to
/// overwrite part of them.
fn arb_bytes_offset() -> impl Strategy<Value = i64> {
    prop_oneof![
        2 => (proptest::sample::select(vec![0i64, 8]), 1i64..8).prop_map(|(s, i)| s + i),
        1 => -1i64..17,
    ]
}

fn action(name: &'static str, parts: Vec<Expr>) -> Action {
    Action { name, parts }
}

/// Heap actions, out-of-bounds ones and a negative `loadBytes` length
/// included; `symbolic` adds symbolic offsets and values to loads and
/// stores. `free` is at offset 0: at other offsets the two heaps
/// report different errors for a freed block (bad offset first in the
/// concrete heap, the block's state first in the symbolic one).
pub fn arb_action(symbolic: bool) -> impl Strategy<Value = Action> {
    prop_oneof![
        1 => (0..BLOCKS - 1, prop_oneof![3 => Just(16i64), 1 => 0i64..20])
            .prop_map(|(b, size)| action("alloc", vec![block(b), Expr::int(size)])),
        5 => (arb_chunk(), arb_block(), arb_offset(symbolic), arb_value(symbolic))
            .prop_map(|(c, b, o, v)| action("store", vec![c, b, o, v])),
        4 => (arb_chunk(), arb_block(), arb_offset(symbolic))
            .prop_map(|(c, b, o)| action("load", vec![c, b, o])),
        2 => (arb_block(), -1i64..17, -1i64..10)
            .prop_map(|(b, o, len)| action("loadBytes", vec![b, Expr::int(o), Expr::int(len)])),
        3 => (arb_block(), arb_bytes_offset(), arb_bytes())
            .prop_map(|(b, o, bytes)| action("storeBytes", vec![b, Expr::int(o), bytes])),
        1 => arb_block().prop_map(|b| action("free", vec![b, Expr::int(0)])),
        1 => (arb_block(), 0i64..4)
            .prop_map(|(b, p)| action("dropPerm", vec![b, Expr::int(p)])),
    ]
}

/// The two 16-byte blocks most actions address, allocated.
fn allocated() -> Vec<Action> {
    (0..BLOCKS - 1)
        .map(|b| action("alloc", vec![block(b), Expr::int(16)]))
        .collect()
}

/// Path condition `i` over `#x` (`LVar(0)`) and `#v` (`LVar(1)`):
/// both integers, then `0 ≤ #x ≤ 8`, or `#x = 4`, or unsat.
fn pc_of(i: u8) -> PathCondition {
    let mut pc = PathCondition::new();
    let (x, v) = (Expr::lvar(LVar(0)), Expr::lvar(LVar(1)));
    for e in [&x, &v] {
        pc.push(e.clone().type_of().eq(Expr::type_tag(TypeTag::Int)));
    }
    match i {
        0 => {}
        1 => {
            pc.push(Expr::int(0).le(x.clone()));
            pc.push(x.le(Expr::int(8)));
        }
        2 => pc.push(x.eq(Expr::int(4))),
        _ => pc.push(Expr::ff()),
    }
    pc
}

fn coded(
    m: CSymMemory,
    name: &str,
    arg: &Expr,
    pc: &PathCondition,
    solver: &Solver,
) -> Vec<SymBranch<CSymMemory>> {
    match m.action_code(name) {
        Some(code) => m.execute_action_coded(code, name, arg, pc, solver),
        None => m.execute_action(name, arg, pc, solver),
    }
}

/// The solver counters both legs must agree on, raw: each leg asks once
/// per branch it decides, and neither asks about a branch whose
/// constraint folds to a literal. The general path also simplifies
/// (offsets, bounds, decoded values), so simplification counts differ by
/// design.
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

/// Every block's byte view.
fn byte_view(m: &CSymMemory) -> Vec<(Expr, (Expr, u8, u8))> {
    (0..BLOCKS).flat_map(|b| m.cells_iter(blk(b))).collect()
}

/// Runs `actions` after allocating the blocks, each through the coded
/// and the general path (with a fresh solver each), and compares them.
/// Each action runs on the first successor of the last.
pub fn coded_matches_general(actions: Vec<(Action, bool)>, pc: u8) -> Result<(), TestCaseError> {
    let mut m = CSymMemory::default();
    let setup = allocated().into_iter().map(|a| (a, true));
    for (action, fold) in setup.chain(actions) {
        let (name, arg) = (action.name, action.arg(fold));
        let (general_solver, coded_solver) = (Solver::optimized(), Solver::optimized());
        let general = m
            .clone()
            .execute_action(name, &arg, &pc_of(pc), &general_solver);
        let fast = coded(m.clone(), name, &arg, &pc_of(pc), &coded_solver);
        prop_assert_eq!(general.len(), fast.len(), "{}({})", name, arg);
        for (g, c) in general.iter().zip(&fast) {
            prop_assert_eq!(&g.outcome, &c.outcome, "{}({})", name, arg);
            prop_assert_eq!(&g.pc, &c.pc, "{}({})", name, arg);
            prop_assert_eq!(
                byte_view(&g.memory),
                byte_view(&c.memory),
                "{}({})",
                name,
                arg
            );
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
    Ok(())
}

/// An action outcome as both heaps can report it: a value, or the kind
/// of undefined behaviour (error details differ between the heaps).
fn comparable(out: Result<Value, Value>) -> Result<Value, Value> {
    out.map_err(|e| match e {
        Value::List(items) if items.len() == 3 => items[1].clone(),
        other => other,
    })
}

/// Runs one literal action on both heaps and compares the outcomes.
fn step(
    sym: CSymMemory,
    conc: &mut CConcMemory,
    action: &Action,
    solver: &Solver,
) -> Result<CSymMemory, TestCaseError> {
    let pc = PathCondition::new();
    let arg = action.arg(true);
    let mut branches = coded(sym, action.name, &arg, &pc, solver);
    prop_assert_eq!(
        branches.len(),
        1,
        "{}({}): {:?}",
        action.name,
        arg,
        branches
    );
    let branch = branches.pop().expect("one branch");
    let ground =
        |e: Expr| gillian_gil::eval::eval(&Default::default(), &e).expect("ground outcome");
    let sym_out = match branch.outcome {
        Ok(e) => Ok(ground(e)),
        Err(e) => Err(ground(e)),
    };
    let conc_out = conc.execute_action(action.name, action.value_arg());
    prop_assert_eq!(
        comparable(sym_out),
        comparable(conc_out),
        "{}({})",
        action.name,
        arg
    );
    Ok(branch.memory)
}

/// Runs literal `actions` on the symbolic and the concrete heap and
/// compares every outcome and, after each action, the whole-block
/// `loadBytes` view of every block.
pub fn symbolic_matches_concrete(actions: Vec<Action>) -> Result<(), TestCaseError> {
    let solver = Solver::optimized();
    let mut sym = CSymMemory::default();
    let mut conc = CConcMemory::default();
    for next in allocated().iter().chain(&actions) {
        sym = step(sym, &mut conc, next, &solver)?;
        for b in 0..BLOCKS {
            let size = match conc.execute_action("sizeBlock", Value::Sym(blk(b))) {
                Ok(Value::Int(n)) => n,
                _ => 0,
            };
            let view = action("loadBytes", vec![block(b), Expr::int(0), Expr::int(size)]);
            sym = step(sym, &mut conc, &view, &solver)?;
        }
    }
    Ok(())
}
