//! `Unknown` sat verdicts must never prune a branch.
//!
//! A solver that cannot decide feasibility has to keep *both* successors
//! of a branch — dropping either one would be unsound (a kept branch is at
//! worst a false positive; a dropped branch is a missed bug). We check this
//! by running the same programs under the normal solver and under a
//! *crippled* solver whose sat deadline is already expired, so every
//! non-trivially-false query answers [`SatResult::Unknown`]:
//!
//! - the crippled run's path set is a superset of the normal run's
//!   (order-normalized, multiset inclusion);
//! - the crippled run reports its Unknown verdicts in the diagnostics and
//!   is marked [`ExploreResult::bounded`].
//!
//! [`SatResult::Unknown`]: gillian_solver::SatResult::Unknown

mod common;

use common::{build_prog, op_strategy, state, state_with, summary, NoMem};
use gillian_core::explore::{explore, ExploreConfig};
use gillian_core::symbolic::SymbolicState;
use gillian_gil::{Cmd, Expr, Proc, Prog};
use gillian_solver::{Solver, SolverConfig};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// A solver whose sat deadline has already passed: every query that is not
/// trivially false comes back `Unknown`.
fn crippled_state() -> SymbolicState<NoMem> {
    let mut config = SolverConfig::optimized();
    config.sat_budget.deadline = Some(Instant::now());
    state_with(Arc::new(Solver::new(config)))
}

/// `needle` is a sub-multiset of `haystack`; both are sorted.
fn is_submultiset(needle: &[(String, String)], haystack: &[(String, String)]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|entry| it.any(|h| h == entry))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unknown_keeps_every_branch_on_random_programs(
        ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let prog = build_prog(&ops);

        let full = explore(&prog, "main", state(), ExploreConfig::default());
        prop_assert!(!full.truncated);

        let unknown = explore(&prog, "main", crippled_state(), ExploreConfig::default());
        prop_assert!(!unknown.truncated, "Unknown must not truncate exploration");

        // Every path the deciding solver found survives verbatim under the
        // undecided solver; the undecided run may only *add* paths.
        let full_summary = summary(&full);
        let unknown_summary = summary(&unknown);
        prop_assert!(
            is_submultiset(&full_summary, &unknown_summary),
            "crippled solver dropped a path: full={full_summary:?} unknown={unknown_summary:?}",
        );
        prop_assert!(unknown.paths.len() >= full.paths.len());

        // Any sat query at all is undecided, so if the program forced one,
        // the run must say so and flag itself as bounded.
        if unknown.diagnostics.unknown_verdicts > 0 {
            prop_assert!(unknown.bounded(), "Unknown verdicts must mark the result bounded");
        } else {
            prop_assert_eq!(&unknown_summary, &full_summary);
        }
    }
}

/// Deterministic witness: a guard that contradicts the path condition is
/// pruned by the deciding solver but kept (as a third path) when the
/// verdict is `Unknown`.
#[test]
fn contradictory_branch_is_kept_under_unknown() {
    let x_neg = Expr::pvar("x").lt(Expr::int(0));
    let prog = Prog::from_procs([Proc::new(
        "main",
        [],
        vec![
            Cmd::isym("x", 0),
            Cmd::IfGoto(x_neg.clone(), 4),
            // Fall-through carries ¬(x < 0); re-testing x < 0 is infeasible.
            Cmd::IfGoto(x_neg, 5),
            Cmd::Return(Expr::int(0)),
            Cmd::Return(Expr::int(1)),
            Cmd::Return(Expr::int(2)),
        ],
    )]);

    let full = explore(&prog, "main", state(), ExploreConfig::default());
    assert_eq!(
        full.paths.len(),
        2,
        "deciding solver prunes the contradiction"
    );
    assert!(full.diagnostics.is_clean());
    assert!(!full.bounded());

    let unknown = explore(&prog, "main", crippled_state(), ExploreConfig::default());
    assert_eq!(
        unknown.paths.len(),
        3,
        "Unknown keeps both successors of the contradictory branch"
    );
    assert!(unknown.diagnostics.unknown_verdicts > 0);
    assert!(unknown.bounded());
    assert!(!unknown.truncated);
    assert!(is_submultiset(&summary(&full), &summary(&unknown)));
}

/// An interrupted *incremental* solve — one that could have reused a
/// healthy frozen prefix — must still answer `Unknown`, must not freeze a
/// (partial or fast-path) solve context on the new chain node, and must
/// not poison the exact cache: prefix reuse never outruns the clock.
#[test]
fn interrupted_incremental_solve_freezes_nothing() {
    use gillian_gil::LVar;
    use gillian_solver::{CancelToken, Interrupt, PathCondition, SatResult};

    let solver = Solver::optimized();
    let x = Expr::lvar(LVar(0));
    // Warm a frozen prefix while the solver is healthy.
    let (verdict, pc) = solver.sat_assume(&PathCondition::new(), &Expr::int(0).le(x.clone()));
    assert_eq!(verdict, SatResult::Sat);
    assert!(pc.has_solve_ctx(), "a healthy Sat freezes its context");

    // Expired run-level deadline: the extension query is out of time even
    // though its frozen prefix could answer it without any solving.
    solver.set_interrupt(Interrupt::new(Some(Instant::now()), CancelToken::new()));
    let (verdict, pc2) = solver.sat_assume(&pc, &x.clone().lt(Expr::int(10)));
    assert_eq!(
        verdict,
        SatResult::Unknown,
        "prefix reuse must not outrun an expired deadline"
    );
    assert!(
        !pc2.has_solve_ctx(),
        "an interrupted solve must never freeze a context"
    );

    // The Unknown was not cached either: clearing the interrupt decides,
    // and the decided solve freezes normally.
    solver.clear_interrupt();
    assert_eq!(solver.check_sat(&pc2), SatResult::Sat);
    assert!(pc2.has_solve_ctx());
}

/// Same scenario one layer up: a branch whose guard contradicts a warm
/// (frozen-context) path condition keeps *both* successors once the
/// deadline fires — the incremental layers must not let the engine prune
/// what the monolithic solver could not decide.
#[test]
fn interrupted_branch_on_warm_prefix_keeps_both_successors() {
    use gillian_core::state::GilState;
    use gillian_gil::LVar;
    use gillian_solver::{CancelToken, Interrupt, PathCondition, SatResult};

    let solver = Arc::new(Solver::optimized());
    let x = Expr::lvar(LVar(0));
    let (verdict, pc) = solver.sat_assume(&PathCondition::new(), &Expr::int(0).le(x.clone()));
    assert_eq!(verdict, SatResult::Sat);
    assert!(pc.has_solve_ctx());

    let mut st = state_with(solver.clone());
    st.pc = pc;
    // Healthy solver: `x < 0` contradicts the prefix, one successor.
    let healthy = st.branch_on(&x.clone().lt(Expr::int(0))).expect("eval");
    assert_eq!(
        healthy.len(),
        1,
        "a deciding solver prunes the contradiction"
    );

    // Expired deadline, and a guard not queried before (a decided verdict
    // already in the exact cache stays valid regardless of deadlines —
    // only *solving* is out of time): both verdicts are Unknown, both
    // successors stay.
    solver.set_interrupt(Interrupt::new(Some(Instant::now()), CancelToken::new()));
    let undecided = st.branch_on(&x.lt(Expr::int(-1))).expect("eval");
    assert_eq!(
        undecided.len(),
        2,
        "Unknown must keep both successors despite the warm prefix"
    );
    for (succ, _) in &undecided {
        assert!(
            !succ.pc.has_solve_ctx(),
            "undecided successors must not carry frozen contexts"
        );
    }
    solver.clear_interrupt();
}
