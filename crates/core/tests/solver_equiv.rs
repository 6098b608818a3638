//! Solver-equivalence battery: the incremental per-prefix contexts and
//! the exact cache (which also hands contexts to other chains with the
//! same conjunct set) are *transparent* optimizations on these queries —
//! every configuration of {incremental, exact cache} must produce
//! identical verdicts on identical queries, and every witness model must
//! concretely satisfy the condition it witnesses.
//!
//! Two generators drive the battery:
//!
//! - random *conjunct chains* grown one atom at a time through
//!   [`gillian_solver::Solver::sat_assume`], querying every prefix under
//!   all four solver configurations (this is the exact access pattern
//!   the symbolic engine produces, so it exercises prefix reuse);
//! - random *branching programs* (the shared `common` generator) explored
//!   to completion under each configuration, comparing order-normalized
//!   path sets and command counts.
//!
//! Atoms are deliberately small (few variables, small constants) so the
//! checker's budgets never bind: budget exhaustion yields `Unknown`, and
//! an `Unknown` may legitimately differ across configurations. So may a
//! decided verdict on conditions with no model, where the interval
//! domain's assertion order matters (nonlinear terms, see
//! `check_extension`); these linear atoms stay clear of that.

mod common;

use common::{build_prog, op_strategy, state_with, summary};
use gillian_core::explore::{explore, ExploreConfig};
use gillian_gil::{Expr, LVar};
use gillian_solver::{PathCondition, SatResult, Solver, SolverConfig, SolverStats};
use proptest::prelude::*;
use std::sync::Arc;

fn x(i: u8) -> Expr {
    Expr::lvar(LVar(u64::from(i % 3)))
}

/// One random conjunct. Three variables and single-digit constants keep
/// every chain decidable within the default budgets.
#[derive(Clone, Debug)]
enum Atom {
    /// `x < c`
    Lt(u8, i64),
    /// `c ≤ x`
    Ge(u8, i64),
    /// `x = c`
    Eq(u8, i64),
    /// `x ≠ c`
    Ne(u8, i64),
    /// `x + y = c`
    SumEq(u8, u8, i64),
    /// `x = y`
    VarEq(u8, u8),
    /// `x + c = y + d` — the then-arm of a membership guard over offset
    /// elements, which the equality extension answers.
    OffEq(u8, i64, u8, i64),
    /// `x + c ≠ y + d`
    OffNe(u8, i64, u8, i64),
    /// `x < c ∨ y = d` — forces a case split, so the solve ends without
    /// a capturable state and descendants re-solve monolithically.
    Or(u8, i64, u8, i64),
}

fn atom_expr(a: &Atom) -> Expr {
    match *a {
        Atom::Lt(v, c) => x(v).lt(Expr::int(c)),
        Atom::Ge(v, c) => Expr::int(c).le(x(v)),
        Atom::Eq(v, c) => x(v).eq(Expr::int(c)),
        Atom::Ne(v, c) => x(v).ne(Expr::int(c)),
        Atom::SumEq(a, b, c) => x(a).add(x(b)).eq(Expr::int(c)),
        Atom::VarEq(a, b) => x(a).eq(x(b)),
        Atom::OffEq(a, c, b, d) => x(a).add(Expr::int(c)).eq(x(b).add(Expr::int(d))),
        Atom::OffNe(a, c, b, d) => x(a).add(Expr::int(c)).ne(x(b).add(Expr::int(d))),
        Atom::Or(v, c, w, d) => x(v).lt(Expr::int(c)).or(x(w).eq(Expr::int(d))),
    }
}

fn atom_strategy() -> impl Strategy<Value = Atom> {
    prop_oneof![
        3 => (0u8..3, -4i64..5).prop_map(|(v, c)| Atom::Lt(v, c)),
        3 => (0u8..3, -4i64..5).prop_map(|(v, c)| Atom::Ge(v, c)),
        2 => (0u8..3, -4i64..5).prop_map(|(v, c)| Atom::Eq(v, c)),
        2 => (0u8..3, -4i64..5).prop_map(|(v, c)| Atom::Ne(v, c)),
        1 => (0u8..3, 0u8..3, -4i64..5).prop_map(|(a, b, c)| Atom::SumEq(a, b, c)),
        1 => (0u8..3, 0u8..3).prop_map(|(a, b)| Atom::VarEq(a, b)),
        1 => (0u8..3, -4i64..5, 0u8..3, -4i64..5)
            .prop_map(|(a, c, b, d)| Atom::OffEq(a, c, b, d)),
        2 => (0u8..3, -4i64..5, 0u8..3, -4i64..5)
            .prop_map(|(a, c, b, d)| Atom::OffNe(a, c, b, d)),
        1 => (0u8..3, -4i64..5, 0u8..3, -4i64..5)
            .prop_map(|(v, c, w, d)| Atom::Or(v, c, w, d)),
    ]
}

/// All four {incremental, exact cache} configurations, each with its own
/// solver instance (caches must not leak across legs).
fn solver_grid() -> Vec<(String, Solver)> {
    let mut out = Vec::new();
    for incremental in [false, true] {
        for caching in [false, true] {
            let cfg = SolverConfig {
                incremental,
                caching,
                ..SolverConfig::optimized()
            };
            out.push((
                format!("inc={incremental} cache={caching}"),
                Solver::new(cfg),
            ));
        }
    }
    out
}

/// Grows one chain of `atoms` under every configuration of
/// [`solver_grid`], requiring equal verdicts on every prefix and on a
/// re-query of the whole chain, and verified witnesses; returns each
/// leg's statistics.
fn agree_on_chain(atoms: &[Atom]) -> Result<Vec<(String, SolverStats)>, TestCaseError> {
    let grid = solver_grid();
    // Each solver grows its own chain through `sat_assume`, exactly
    // as the engine does, so frozen contexts land on the live chain.
    let mut pcs: Vec<PathCondition> = vec![PathCondition::new(); grid.len()];
    for atom in atoms {
        let e = atom_expr(atom);
        let mut reference: Option<(SatResult, &str)> = None;
        for ((name, solver), pc) in grid.iter().zip(pcs.iter_mut()) {
            let (verdict, grown) = solver.sat_assume(pc, &e);
            *pc = grown;
            prop_assert_ne!(
                verdict,
                SatResult::Unknown,
                "budgets must not bind on these chains ({})",
                name
            );
            match reference {
                None => reference = Some((verdict, name)),
                Some((expected, ref_name)) => prop_assert_eq!(
                    verdict,
                    expected,
                    "{} diverged from {} on {}",
                    name,
                    ref_name,
                    pc
                ),
            }
            if verdict == SatResult::Sat {
                if let Some(m) = solver.model(pc) {
                    prop_assert!(
                        m.satisfies(&pc.conjuncts()),
                        "unverified witness from {} for {}",
                        name,
                        pc
                    );
                }
            }
        }
    }
    // Re-query every full chain: the answered-from-cache paths must
    // agree with the freshly solved ones too.
    let mut reference: Option<SatResult> = None;
    for ((name, solver), pc) in grid.iter().zip(pcs.iter()) {
        let verdict = solver.check_sat(pc);
        match reference {
            None => reference = Some(verdict),
            Some(expected) => prop_assert_eq!(
                verdict,
                expected,
                "re-query under {} diverged on {}",
                name,
                pc
            ),
        }
    }
    Ok(grid
        .iter()
        .map(|(name, solver)| (name.clone(), solver.stats()))
        .collect())
}

#[test]
fn offset_guards_take_the_equality_extension() {
    // Three distinct offset elements, then the then-arm of a membership
    // guard: the delta `x0 + 1 = x2 + -1` extends the frozen prefix.
    let chain = [
        Atom::OffNe(0, 1, 1, -2),
        Atom::OffNe(0, 1, 2, 3),
        Atom::OffNe(1, -2, 2, 3),
        Atom::Lt(2, 4),
        Atom::OffEq(0, 1, 2, -1),
    ];
    let stats = agree_on_chain(&chain).unwrap_or_else(|e| panic!("{e}"));
    for (name, stats) in stats {
        let incremental = name.starts_with("inc=true");
        assert_eq!(
            stats.equality_extension_hits > 0,
            incremental,
            "{name}: {stats:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_solver_configs_agree_on_growing_conditions(
        atoms in proptest::collection::vec(atom_strategy(), 1..10),
    ) {
        agree_on_chain(&atoms)?;
    }

    #[test]
    fn exploration_agrees_across_solver_configs(
        ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let prog = build_prog(&ops);
        let mut reference: Option<(Vec<(String, String)>, u64)> = None;
        for incremental in [false, true] {
            let cfg = SolverConfig {
                incremental,
                ..SolverConfig::optimized()
            };
            let r = explore(
                &prog,
                "main",
                state_with(Arc::new(Solver::new(cfg))),
                ExploreConfig::default(),
            );
            prop_assert!(!r.truncated, "budgets must not bind on these programs");
            prop_assert!(
                r.diagnostics.is_clean(),
                "unexpected incidents: {:?}", r.diagnostics
            );
            let s = summary(&r);
            match &reference {
                None => reference = Some((s, r.total_cmds)),
                Some((expected, cmds)) => {
                    prop_assert_eq!(
                        &s, expected,
                        "inc={} changed the explored paths",
                        incremental
                    );
                    prop_assert_eq!(r.total_cmds, *cmds);
                }
            }
        }
    }
}
