//! Property tests for the solver: the simplifier preserves semantics, the
//! satisfiability checker never calls a satisfied conjunction unsat, and
//! every model the finder returns is genuine, and model evaluation agrees
//! with substituting the model and evaluating concretely.
//!
//! These are the executable form of the correctness obligations the paper
//! puts on the first-order solver — Gillian trusts the solver the way it
//! trusts Z3, so here the trust is discharged by differential testing
//! against the concrete evaluator (the same operator semantics the
//! interpreter runs).

use gillian_gil::eval::eval_closed;
use gillian_gil::{BinOp, Expr, LVar, Sym, TypeTag, UnOp, Value};
use gillian_solver::model::{find_model, Model, ModelBudget};
use gillian_solver::sat::{check_conjunction, SatBudget};
use gillian_solver::simplify::simplify;
use gillian_solver::typing::TypeEnv;
use gillian_solver::SatResult;
use proptest::prelude::*;
use std::collections::BTreeMap;

const NUM_LVARS: u64 = 3;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::Int),
        (-50i64..50).prop_map(|n| Value::num(n as f64 / 2.0)),
        prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(-0.0),].prop_map(Value::num),
        "[a-c]{0,2}".prop_map(|s| Value::str(&s)),
        any::<bool>().prop_map(Value::Bool),
        (0u64..4).prop_map(|i| Value::Sym(Sym(Sym::FIRST_FRESH + i))),
        proptest::collection::vec((-5i64..5).prop_map(Value::Int), 0..3).prop_map(Value::List),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_value().prop_map(Expr::Val),
        (0..NUM_LVARS).prop_map(|i| Expr::lvar(LVar(i))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), arb_unop()).prop_map(|(e, op)| e.un(op)),
            (inner.clone(), inner.clone(), arb_binop()).prop_map(|(a, b, op)| a.bin(op, b)),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Expr::list),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Expr::strcat_of),
            proptest::collection::vec(inner, 1..3).prop_map(Expr::lstcat_of),
        ]
    })
}

fn arb_unop() -> impl Strategy<Value = UnOp> {
    prop_oneof![
        Just(UnOp::Not),
        Just(UnOp::Neg),
        Just(UnOp::TypeOf),
        Just(UnOp::IntToNum),
        Just(UnOp::NumToInt),
        Just(UnOp::StrLen),
        Just(UnOp::LstLen),
        Just(UnOp::LstHead),
        Just(UnOp::LstTail),
        Just(UnOp::LstRev),
        Just(UnOp::BitNot),
        Just(UnOp::WrapSigned(8)),
        Just(UnOp::WrapUnsigned(16)),
        Just(UnOp::Floor),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Eq),
        Just(BinOp::Lt),
        Just(BinOp::Leq),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::BitAnd),
        Just(BinOp::Shl),
        Just(BinOp::LstNth),
        Just(BinOp::LstCons),
        Just(BinOp::LstSub),
    ]
}

/// An environment assigning the fixed logical variables, plus the typing
/// facts it induces (the simplifier may assume them, as the path condition
/// would carry them).
fn arb_env() -> impl Strategy<Value = (Vec<Value>, TypeEnv)> {
    proptest::collection::vec(arb_value(), NUM_LVARS as usize).prop_map(|vals| {
        let env: TypeEnv = vals
            .iter()
            .enumerate()
            .map(|(i, v)| (LVar(i as u64), v.type_of()))
            .collect();
        (vals, env)
    })
}

/// Every unary operator, with wrap widths on both sides of the valid
/// `1..=64` range.
fn arb_any_unop() -> impl Strategy<Value = UnOp> {
    prop_oneof![
        proptest::sample::select(vec![
            UnOp::Not,
            UnOp::Neg,
            UnOp::TypeOf,
            UnOp::IntToNum,
            UnOp::NumToInt,
            UnOp::ToStr,
            UnOp::StrLen,
            UnOp::LstLen,
            UnOp::LstHead,
            UnOp::LstTail,
            UnOp::LstRev,
            UnOp::BitNot,
            UnOp::Floor,
        ]),
        (0u8..66).prop_map(UnOp::WrapSigned),
        (0u8..66).prop_map(UnOp::WrapUnsigned),
    ]
}

/// Every binary operator.
fn arb_any_binop() -> impl Strategy<Value = BinOp> {
    proptest::sample::select(vec![
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Eq,
        BinOp::Lt,
        BinOp::Leq,
        BinOp::And,
        BinOp::Or,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
        BinOp::Shl,
        BinOp::ShrA,
        BinOp::ShrL,
        BinOp::LstNth,
        BinOp::StrNth,
        BinOp::LstCons,
        BinOp::LstSub,
    ])
}

/// Expressions over every operator and node kind, with logical and
/// program variables at the leaves.
fn arb_open_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        3 => arb_value().prop_map(Expr::Val),
        3 => (0..NUM_LVARS + 1).prop_map(|i| Expr::lvar(LVar(i))),
        1 => "[pq]".prop_map(Expr::pvar),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), arb_any_unop()).prop_map(|(e, op)| e.un(op)),
            (inner.clone(), inner.clone(), arb_any_binop()).prop_map(|(a, b, op)| a.bin(op, b)),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Expr::list),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Expr::strcat_of),
            proptest::collection::vec(inner, 0..3).prop_map(Expr::lstcat_of),
        ]
    })
}

/// A partial assignment to the logical variables (one more variable than
/// [`arb_expr`] uses, so some stay unassigned whatever is drawn).
fn arb_partial_model() -> impl Strategy<Value = Model> {
    proptest::collection::vec((any::<bool>(), arb_value()), NUM_LVARS as usize).prop_map(|vals| {
        let assignment: BTreeMap<LVar, Value> = vals
            .into_iter()
            .enumerate()
            .filter(|(_, (assigned, _))| *assigned)
            .map(|(i, (_, v))| (LVar(i as u64), v))
            .collect();
        Model::from_assignment(assignment)
    })
}

fn eval_under(e: &Expr, vals: &[Value]) -> Result<Value, String> {
    let closed = e.subst(&|sub| match sub {
        Expr::LVar(LVar(i)) => Some(Expr::Val(vals[*i as usize].clone())),
        _ => None,
    });
    eval_closed(&closed).map_err(|err| err.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The core soundness property of the simplifier: for any expression
    /// and any assignment consistent with the typing facts, the simplified
    /// expression evaluates to the same value — and an expression that
    /// errors keeps erroring (error preservation).
    #[test]
    fn simplify_preserves_semantics((vals, env) in arb_env(), e in arb_expr()) {
        let s = simplify(&env, &e);
        let before = eval_under(&e, &vals);
        let after = eval_under(&s, &vals);
        match (&before, &after) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} vs {}", e, s),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "outcome changed by simplification:\n  e = {}\n  s = {}\n  before = {:?}\n  after = {:?}",
                e, s, a, b
            ),
        }
    }

    /// Simplification is idempotent.
    #[test]
    fn simplify_is_idempotent((_vals, env) in arb_env(), e in arb_expr()) {
        let once = simplify(&env, &e);
        let twice = simplify(&env, &once);
        prop_assert_eq!(&once, &twice, "not idempotent on {}", e);
    }

    /// Satisfiability never reports Unsat for a conjunction that a found
    /// witness satisfies: generate boolean expressions, find an assignment
    /// that makes them true, and demand the checker agrees.
    #[test]
    fn sat_checker_never_refutes_a_witness((vals, env) in arb_env(), es in proptest::collection::vec(arb_expr(), 1..4)) {
        // Turn each generated expression into the atom "e evaluated to
        // this concrete boolean" — a conjunction satisfied by `vals`.
        let mut conjuncts = Vec::new();
        for e in &es {
            if let Ok(Value::Bool(b)) = eval_under(e, &vals) {
                conjuncts.push(if b { e.clone() } else { e.clone().not() });
            }
        }
        // Also pin each variable (ground truth: definitely satisfiable).
        for (i, v) in vals.iter().enumerate() {
            conjuncts.push(Expr::lvar(LVar(i as u64)).eq(Expr::Val(v.clone())));
        }
        let _ = env;
        let verdict = check_conjunction(&conjuncts, SatBudget::default());
        prop_assert_ne!(
            verdict,
            SatResult::Unsat,
            "refuted a satisfied conjunction: {:?} under {:?}",
            conjuncts,
            vals
        );
    }

    /// Every model the finder returns satisfies the conjunction it was
    /// asked about.
    #[test]
    fn models_are_genuine(es in proptest::collection::vec(arb_expr(), 1..3)) {
        // Use type facts to make the atoms meaningful.
        let conjuncts: Vec<Expr> = es
            .iter()
            .map(|e| e.clone().type_of().eq(Expr::type_tag(TypeTag::Int)))
            .collect();
        if let Some(model) = find_model(&conjuncts, ModelBudget::default()) {
            prop_assert!(model.satisfies(&conjuncts), "{model} does not satisfy {conjuncts:?}");
        }
    }

    /// Model evaluation is substitution followed by concrete evaluation,
    /// down to the error text: same value, same first error.
    #[test]
    fn model_eval_matches_substitution(model in arb_partial_model(), e in arb_open_expr()) {
        let substituted = e.subst(&|sub| match sub {
            Expr::LVar(x) => model.get(*x).map(|v| Expr::Val(v.clone())),
            _ => None,
        });
        prop_assert_eq!(model.eval(&e), eval_closed(&substituted), "{} under {}", e, model);
    }

    /// The typed equality decision: expressions of provably different
    /// types are never equal — checked against evaluation.
    #[test]
    fn type_distinct_equalities_agree_with_eval((vals, env) in arb_env(), a in arb_expr(), b in arb_expr()) {
        let eq = simplify(&env, &a.clone().eq(b.clone()));
        if let Some(verdict) = eq.as_bool() {
            if let (Ok(va), Ok(vb)) = (eval_under(&a, &vals), eval_under(&b, &vals)) {
                prop_assert_eq!(verdict, va == vb, "({}) = ({}) simplified to {}", a, b, verdict);
            }
        }
    }
}
