//! Concrete evaluation of GIL expressions: `⟦e⟧ρ` (paper §2.3).
//!
//! Evaluation is against a *concrete store* mapping program variables to
//! [`Value`]s. Logical variables are rejected: they only exist in symbolic
//! execution, where evaluation is substitution followed by simplification
//! (see `gillian-solver`).

use crate::expr::Expr;
use crate::frame::Frame;
use crate::ops::{eval_binop, eval_lstcat, eval_strcat, eval_unop, EvalError};
use crate::value::Value;

/// Evaluates an expression in a concrete store.
///
/// # Errors
///
/// Returns [`EvalError`] for unbound program variables, logical variables,
/// and operator domain violations.
pub fn eval(store: &Frame<Value>, e: &Expr) -> Result<Value, EvalError> {
    eval_in(&|x| store.get(x), e)
}

/// Evaluates an expression with no store: every program variable is
/// unbound.
///
/// # Errors
///
/// As [`eval`] in the empty store.
pub fn eval_closed(e: &Expr) -> Result<Value, EvalError> {
    eval_in(&|_| None, e)
}

fn eval_in<'s>(lookup: &impl Fn(&str) -> Option<&'s Value>, e: &Expr) -> Result<Value, EvalError> {
    let eval = |e: &Expr| eval_in(lookup, e);
    match e {
        Expr::Val(v) => Ok(v.clone()),
        Expr::PVar(x) => lookup(x)
            .cloned()
            .ok_or_else(|| EvalError::new(format!("unbound variable {x}"))),
        Expr::LVar(x) => Err(EvalError::new(format!(
            "logical variable {x} in concrete evaluation"
        ))),
        Expr::Un(op, e) => eval_unop(*op, &eval(e)?),
        Expr::Bin(op, a, b) => eval_binop(*op, &eval(a)?, &eval(b)?),
        Expr::List(es) => es.iter().map(eval).collect(),
        Expr::StrCat(es) => {
            let vs: Vec<Value> = es.iter().map(eval).collect::<Result<_, _>>()?;
            eval_strcat(&vs)
        }
        Expr::LstCat(es) => {
            let vs: Vec<Value> = es.iter().map(eval).collect::<Result<_, _>>()?;
            eval_lstcat(&vs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LVar;

    fn store() -> Frame<Value> {
        [("x", Value::Int(10)), ("name", Value::str("gil"))]
            .into_iter()
            .map(|(x, v)| (x.into(), v))
            .collect()
    }

    #[test]
    fn evaluates_against_store() {
        let e = Expr::pvar("x").add(Expr::int(5));
        assert_eq!(eval(&store(), &e).unwrap(), Value::Int(15));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        assert!(eval(&store(), &Expr::pvar("y")).is_err());
    }

    #[test]
    fn logical_variable_is_an_error() {
        assert!(eval(&store(), &Expr::lvar(LVar(0))).is_err());
    }

    #[test]
    fn list_and_strcat_evaluate_elementwise() {
        let e = Expr::list([Expr::pvar("x"), Expr::int(2)]);
        assert_eq!(
            eval(&store(), &e).unwrap(),
            Value::List(vec![Value::Int(10), Value::Int(2)])
        );
        let s = Expr::StrCat(vec![Expr::pvar("name"), Expr::str("!")].into());
        assert_eq!(eval(&store(), &s).unwrap(), Value::str("gil!"));
    }
}
