//! Table-driven equivalence suite for the bytecode compiler
//! (`DESIGN.md` §15): the compiled forms must accept and reject *exactly*
//! what the reference tree walk does.
//!
//! Three tables:
//!
//! 1. **Expressions** — for each (expression, store) row, `eval()` is the
//!    oracle and both compiled strategies (`ExprCode::eval_concrete` and
//!    a forced `RegProg::flatten(..).run(..)`) must match it bit-for-bit,
//!    including the exact [`EvalError`] message and *which* error fires
//!    first when several are possible.
//! 2. **Symbolic folding** — `RegProg::run_symbolic` on fully-literal
//!    stores must reach the same values as concrete evaluation (modulo
//!    the deliberately-unfolded concatenations), and report the same
//!    first unbound variable.
//! 3. **Commands** — every [`Cmd`] variant compiles to the expected
//!    [`Instr`] shape, one instruction per command (`pc == idx`), with
//!    call hints and inline caches in their documented initial states.
//!
//! Compiled sites name variables by slot, so each row is compiled against
//! a layout covering its store and its expression, and evaluated over its
//! store laid out the same way.

use gillian_gil::compile::{
    compile, EvalScratch, ExprCode, ExprKind, Instr, RegProg, IC_UNRESOLVED,
};
use gillian_gil::eval::eval;
use gillian_gil::{BinOp, Cmd, Expr, Frame, LVar, Layout, Proc, Prog, UnOp, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

type Store = Frame<Value>;

fn store(bindings: &[(&str, Value)]) -> Store {
    bindings
        .iter()
        .map(|(x, v)| (Arc::from(*x), v.clone()))
        .collect()
}

/// A layout covering `st` and the variables of `e`, and `st` laid out by
/// it.
fn laid_out(st: &Store, e: &Expr) -> (Arc<Layout>, Store) {
    let names = st.iter().map(|(x, _)| x.clone()).chain(e.pvars());
    let layout = Arc::new(Layout::new(names));
    let st = st.relayout(&layout).expect("the layout covers the store");
    (layout, st)
}

/// The expression table: name, expression, store. The oracle outcome is
/// computed by the tree walk, not hard-coded — the property under test is
/// *agreement*, including the error taxonomy (compared as rendered
/// [`EvalError`] strings).
fn expr_table() -> Vec<(&'static str, Expr, Store)> {
    let x_int = || store(&[("x", Value::Int(7))]);
    vec![
        ("literal", Expr::int(42), Store::new()),
        ("bare var", Expr::pvar("x"), x_int()),
        ("unbound var", Expr::pvar("nope"), Store::new()),
        (
            "lvar rejected concretely",
            Expr::lvar(LVar(3)),
            Store::new(),
        ),
        ("closed ok", Expr::int(2).add(Expr::int(3)), Store::new()),
        ("closed error", Expr::int(1).div(Expr::int(0)), Store::new()),
        ("bin1 var left", Expr::pvar("x").add(Expr::int(1)), x_int()),
        ("bin1 var right", Expr::int(1).add(Expr::pvar("x")), x_int()),
        ("bin1 div_nz", Expr::pvar("x").div(Expr::int(2)), x_int()),
        (
            "bin1 div_nz non-int operand",
            Expr::pvar("x").div(Expr::int(2)),
            store(&[("x", Value::str("oops"))]),
        ),
        (
            "bin1 div by zero",
            Expr::pvar("x").div(Expr::int(0)),
            x_int(),
        ),
        (
            "bin1 type error",
            Expr::pvar("x").add(Expr::str("s")),
            x_int(),
        ),
        ("bin1 unbound", Expr::pvar("y").mul(Expr::int(2)), x_int()),
        (
            "nested arithmetic",
            Expr::pvar("x")
                .add(Expr::int(1))
                .mul(Expr::pvar("x").sub(Expr::int(2))),
            x_int(),
        ),
        (
            "division by symbolic zero",
            Expr::pvar("x").div(Expr::pvar("z")),
            store(&[("x", Value::Int(7)), ("z", Value::Int(0))]),
        ),
        (
            "first error wins (left unbound beats right div-by-zero)",
            Expr::pvar("a").add(Expr::int(1).div(Expr::int(0))),
            Store::new(),
        ),
        (
            "error order inside a list",
            Expr::list([
                Expr::pvar("x"),
                Expr::pvar("missing"),
                Expr::int(1).div(Expr::int(0)),
            ]),
            x_int(),
        ),
        ("unop ok", Expr::str("hello").un(UnOp::StrLen), Store::new()),
        ("unop on var", Expr::pvar("x").un(UnOp::Neg), x_int()),
        ("unop type error", Expr::pvar("x").un(UnOp::StrLen), x_int()),
        (
            "head of empty list",
            Expr::list([]).un(UnOp::LstHead),
            Store::new(),
        ),
        (
            "list of vars",
            Expr::list([Expr::pvar("x"), Expr::int(2), Expr::pvar("x")]),
            x_int(),
        ),
        (
            "nested lists",
            Expr::list([Expr::list([Expr::pvar("x")]), Expr::list([])]),
            x_int(),
        ),
        (
            "strcat",
            Expr::strcat_of([Expr::str("a"), Expr::pvar("s"), Expr::str("c")]),
            store(&[("s", Value::str("b"))]),
        ),
        (
            "strcat type error",
            Expr::strcat_of([Expr::str("a"), Expr::pvar("x")]),
            x_int(),
        ),
        (
            "lstcat",
            Expr::lstcat_of([Expr::list([Expr::int(1)]), Expr::pvar("l")]),
            store(&[("l", Value::List(vec![Value::Int(2), Value::Int(3)]))]),
        ),
        (
            "lstcat type error",
            Expr::lstcat_of([Expr::list([]), Expr::pvar("x")]),
            x_int(),
        ),
        (
            "comparison chain",
            Expr::pvar("x").lt(Expr::int(10)).eq(Expr::bool(true)),
            x_int(),
        ),
        (
            "num_to_int of non-num",
            Expr::pvar("x").eq(Expr::int(7)).un(UnOp::NumToInt),
            x_int(),
        ),
        (
            "deep mixed tree",
            Expr::list([
                Expr::strcat_of([Expr::str("n="), Expr::pvar("x").un(UnOp::ToStr)]),
                Expr::pvar("x").mul(Expr::pvar("x")),
                Expr::bool(true).not(),
            ]),
            x_int(),
        ),
    ]
}

/// Both compiled strategies agree with the tree walk on every row —
/// values, errors, and error identity.
#[test]
fn compiled_expressions_match_treewalk() {
    let mut scratch = EvalScratch::new();
    for (name, e, st) in expr_table() {
        let oracle = eval(&st, &e);
        let (layout, st) = laid_out(&st, &e);
        let site = ExprCode::new(&e, &layout);
        let via_site = site.eval_concrete(&st, &mut scratch);
        assert_eq!(
            oracle.as_ref().map_err(|err| err.to_string()),
            via_site.as_ref().map_err(|err| err.to_string()),
            "row {name:?}: ExprCode::eval_concrete diverged from eval()"
        );
        // Force the general register path even where ExprCode would have
        // picked a specialized strategy — the fallback must agree too.
        let via_reg = RegProg::flatten(&e, &layout).run(&st, &mut scratch);
        assert_eq!(
            oracle.as_ref().map_err(|err| err.to_string()),
            via_reg.as_ref().map_err(|err| err.to_string()),
            "row {name:?}: RegProg::run diverged from eval()"
        );
    }
}

/// True when the expression contains a concatenation node anywhere —
/// the one shape `run_symbolic` deliberately leaves residual.
fn contains_cat(e: &Expr) -> bool {
    match e {
        Expr::StrCat(_) | Expr::LstCat(_) => true,
        Expr::Un(_, t) => contains_cat(t),
        Expr::Bin(_, a, b) => contains_cat(a) || contains_cat(b),
        Expr::List(es) => es.iter().any(contains_cat),
        Expr::Val(_) | Expr::PVar(_) | Expr::LVar(_) => false,
    }
}

/// `run_symbolic` over a fully-literal store: rows whose tree walk
/// succeeds and contain no concatenation must fold to exactly
/// `Expr::Val(oracle value)`; rows whose first failure is an unbound
/// variable must report that same variable.
#[test]
fn run_symbolic_folds_literal_stores() {
    let mut scratch = EvalScratch::new();
    for (name, e, st) in expr_table() {
        let (layout, st) = laid_out(&st, &e);
        let rp = RegProg::flatten(&e, &layout);
        let sym_store: Frame<Expr> = st
            .iter()
            .map(|(x, v)| (x.clone(), Expr::Val(v.clone())))
            .collect();
        let sym_store = sym_store.relayout(&layout).expect("same names");
        let sym = rp.run_symbolic(&sym_store, &mut scratch);
        match eval(&st, &e) {
            Ok(v) => {
                if !contains_cat(&e) {
                    assert_eq!(
                        sym.as_ref().ok(),
                        Some(&Expr::Val(v)),
                        "row {name:?}: symbolic fold missed a concrete value"
                    );
                } else {
                    // Concatenations stay residual by design; the result
                    // must still be *closed* (no variables survive).
                    let folded = sym.expect("cat row should not error symbolically");
                    assert!(
                        folded.pvars().is_empty(),
                        "row {name:?}: a program variable survived folding"
                    );
                }
            }
            Err(err) => {
                let msg = err.to_string();
                if let Some(var) = msg.strip_prefix("evaluation error: unbound variable ") {
                    assert_eq!(
                        sym.as_ref().err().map(|x| x.as_ref()),
                        Some(var),
                        "row {name:?}: first unbound variable disagrees"
                    );
                }
                // Other concrete errors (type errors, division by zero)
                // are *not* symbolic errors: the evaluator keeps the
                // residual node and lets the path condition decide. The
                // contract there is checked by the engine batteries.
            }
        }
    }
}

/// Every `Cmd` variant compiles to its documented `Instr` shape, one
/// instruction per source command.
#[test]
fn every_cmd_variant_compiles_to_expected_shape() {
    let body = vec![
        Cmd::assign("x", Expr::int(1)),
        Cmd::IfGoto(Expr::pvar("x").lt(Expr::int(2)), 0),
        Cmd::Goto(5),
        Cmd::Call {
            lhs: "r".into(),
            proc: Expr::proc("helper"),
            args: vec![Expr::pvar("x")],
        },
        Cmd::Call {
            lhs: "r".into(),
            proc: Expr::proc("no_such_proc"),
            args: vec![],
        },
        Cmd::Call {
            lhs: "r".into(),
            proc: Expr::pvar("f"),
            args: vec![],
        },
        Cmd::action("m", "lookup", Expr::pvar("x")),
        Cmd::USym {
            lhs: "u".into(),
            site: 9,
        },
        Cmd::ISym {
            lhs: "i".into(),
            site: 4,
        },
        Cmd::Skip,
        Cmd::Vanish,
        Cmd::Fail(Expr::str("boom")),
        Cmd::Return(Expr::pvar("x")),
    ];
    let n = body.len();
    let mut prog = Prog::new();
    prog.add(Proc::new("main", [], body));
    prog.add(Proc::new(
        "helper",
        ["a"],
        vec![Cmd::Return(Expr::pvar("a"))],
    ));
    let compiled = compile(&prog);

    let main = compiled.proc("main").expect("main compiles");
    assert_eq!(main.body.len(), n, "pc == idx requires one Instr per Cmd");

    match &main.body[0] {
        Instr::Assign { lhs, code } => {
            assert_eq!(main.layout.name(*lhs).as_ref(), "x");
            assert!(matches!(code.kind(), ExprKind::Lit(Value::Int(1))));
        }
        other => panic!("Assign compiled to {other:?}"),
    }
    match &main.body[1] {
        Instr::CmpGoto { code, target } => {
            assert_eq!(*target, 0);
            assert!(matches!(code.kind(), ExprKind::Bin1 { op: BinOp::Lt, .. }));
        }
        other => panic!("IfGoto compiled to {other:?}"),
    }
    assert!(matches!(&main.body[2], Instr::Goto { target: 5 }));
    match &main.body[3] {
        Instr::Call { hint, args, .. } => {
            let hint = hint.as_ref().expect("literal callee resolves a hint");
            assert_eq!(hint.name.as_ref(), "helper");
            assert_eq!(hint.pid, compiled.pid("helper"));
            assert!(hint.pid.is_some());
            assert_eq!(args.len(), 1);
        }
        other => panic!("Call compiled to {other:?}"),
    }
    match &main.body[4] {
        Instr::Call { hint, .. } => {
            // Unknown callee: the hint keeps the name but no pid, so the
            // "unknown procedure" error stays a *runtime* error, raised
            // after argument evaluation exactly as the tree walk does.
            let hint = hint.as_ref().expect("literal callee still hints");
            assert_eq!(hint.name.as_ref(), "no_such_proc");
            assert_eq!(hint.pid, None);
        }
        other => panic!("Call compiled to {other:?}"),
    }
    match &main.body[5] {
        Instr::Call { hint, code, .. } => {
            assert!(hint.is_none(), "dynamic callee must not be pre-resolved");
            assert!(matches!(code.kind(), ExprKind::Var(_)));
        }
        other => panic!("Call compiled to {other:?}"),
    }
    match &main.body[6] {
        Instr::Action { lhs, name, ic, .. } => {
            assert_eq!(main.layout.name(*lhs).as_ref(), "m");
            assert_eq!(name.as_ref(), "lookup");
            assert_eq!(ic.load(Ordering::Relaxed), IC_UNRESOLVED);
        }
        other => panic!("Action compiled to {other:?}"),
    }
    assert!(matches!(&main.body[7], Instr::USym { site: 9, .. }));
    assert!(matches!(&main.body[8], Instr::ISym { site: 4, .. }));
    assert!(matches!(&main.body[9], Instr::Skip));
    assert!(matches!(&main.body[10], Instr::Vanish));
    assert!(matches!(&main.body[11], Instr::Fail { .. }));
    assert!(matches!(&main.body[12], Instr::Return { .. }));

    // Dense, deterministic pids: both procedures resolve, distinctly.
    let (main_pid, helper_pid) = (
        compiled.pid("main").unwrap(),
        compiled.pid("helper").unwrap(),
    );
    assert_ne!(main_pid, helper_pid);
    assert!(main_pid < 2 && helper_pid < 2);
    assert_eq!(compiled.by_pid(main_pid).name.as_ref(), "main");
    assert_eq!(compiled.by_pid(helper_pid).param_slots.len(), 1);
    assert_eq!(compiled.pid("absent"), None);
    assert!(compiled.proc("absent").is_none());
}

/// The compiler's strategy selection: each shape lands on the documented
/// [`ExprKind`], and `Closed` sites pre-compute errors without losing
/// them.
#[test]
fn expr_code_strategy_selection() {
    type KindCheck = fn(&ExprKind) -> bool;
    let rows: Vec<(&str, Expr, KindCheck)> = vec![
        ("lit", Expr::int(3), |k| matches!(k, ExprKind::Lit(_))),
        ("var", Expr::pvar("x"), |k| matches!(k, ExprKind::Var(_))),
        ("closed ok", Expr::int(1).add(Expr::int(2)), |k| {
            matches!(k, ExprKind::Closed(Ok(Value::Int(3))))
        }),
        ("closed err", Expr::int(1).div(Expr::int(0)), |k| {
            matches!(k, ExprKind::Closed(Err(_)))
        }),
        ("bin1 left", Expr::pvar("x").add(Expr::int(1)), |k| {
            matches!(
                k,
                ExprKind::Bin1 {
                    var_on_left: true,
                    div_nz: false,
                    ..
                }
            )
        }),
        ("bin1 right", Expr::int(1).add(Expr::pvar("x")), |k| {
            matches!(
                k,
                ExprKind::Bin1 {
                    var_on_left: false,
                    ..
                }
            )
        }),
        ("bin1 div_nz", Expr::pvar("x").div(Expr::int(2)), |k| {
            matches!(k, ExprKind::Bin1 { div_nz: true, .. })
        }),
        (
            "div by zero is not div_nz",
            Expr::pvar("x").div(Expr::int(0)),
            |k| matches!(k, ExprKind::Bin1 { div_nz: false, .. }),
        ),
        ("general", Expr::pvar("x").add(Expr::pvar("y")), |k| {
            matches!(k, ExprKind::Reg(_))
        }),
        (
            "lvar keeps general path",
            Expr::lvar(LVar(1)).add(Expr::pvar("x")),
            |k| matches!(k, ExprKind::Reg(_)),
        ),
    ];
    for (name, e, check) in rows {
        let code = ExprCode::new(&e, &Layout::new(e.pvars()));
        assert!(check(code.kind()), "row {name:?}: got {:?}", code.kind());
        assert_eq!(code.source(), &e, "row {name:?}: source must be preserved");
    }
}
