//! Regressions: an integer negated and compared with `i64::MIN`. The
//! interval domain solves `-1·x = m` by dividing `m` by `-1`, which
//! overflows at `m = i64::MIN`; the solver must answer without a panic,
//! and a guest program reaching the guard must finish without an
//! engine-error path.

use gillian::gil::{Expr, LVar};
use gillian::solver::{PathCondition, Solver};

fn negations() -> [Expr; 2] {
    let x = Expr::lvar(LVar(0));
    [x.clone().mul(Expr::int(-1)), Expr::int(0).sub(x)]
}

#[test]
fn negation_equal_to_min_is_possibly_sat() {
    for neg in negations() {
        let solver = Solver::optimized();
        let (verdict, _) =
            solver.sat_assume(&PathCondition::new(), &neg.clone().eq(Expr::int(i64::MIN)));
        assert!(verdict.possibly_sat(), "{neg} = i64::MIN");
        let (verdict, _) =
            solver.sat_assume(&PathCondition::new(), &neg.clone().ne(Expr::int(i64::MIN)));
        assert!(verdict.possibly_sat(), "{neg} != i64::MIN");
    }
}

#[test]
fn negation_bounded_by_min_is_possibly_sat() {
    let min = Expr::int(i64::MIN);
    for neg in negations() {
        let solver = Solver::optimized();
        for atom in [neg.clone().le(min.clone()), min.clone().le(neg.clone())] {
            let (verdict, _) = solver.sat_assume(&PathCondition::new(), &atom);
            assert!(verdict.possibly_sat(), "{atom}");
        }
    }
}

#[test]
fn while_guard_on_negated_min_has_no_engine_error() {
    let out = gillian::while_lang::symbolic_test(
        r#"
        proc main() {
            x := symb();
            y := 0 - x;
            if (y = 0 - 9223372036854775807 - 1) { r := 1; } else { r := 0; }
            if (y <= 0 - 9223372036854775807 - 1) { r := r + 1; } else { r := r; }
            return r;
        }
    "#,
    )
    .expect("parses");
    let diagnostics = &out.result.diagnostics;
    assert_eq!(diagnostics.engine_errors, 0, "{diagnostics:?}");
    assert!(!out.result.truncated);
    assert!(out.verified(), "{:?}", out.bugs);
}
