//! Extensional equivalence of the interned representation.
//!
//! The hash-consed `Term` representation and the interned-id-keyed solver
//! caches (the SAT memo keyed on `PcKey`, the simplifier memo keyed on
//! `(pc ids, term)`) are pure plumbing: they must never change what a
//! symbolic run observes. These properties drive whole random programs
//! (reusing the generator shared with the engine-equivalence tests)
//! through two solvers that differ only in that plumbing and require
//! identical order-normalized results:
//!
//! - **cached vs uncached** — the optimized solver answers from its
//!   id-keyed memo tables; the reference solver recomputes every
//!   simplification and satisfiability verdict structurally. Same path
//!   sets, same outcomes, same command counts.
//! - **sharing vs rebuilding** — running the same program twice reuses
//!   interned nodes the second time (the interner is global), which must
//!   not perturb results across engines or worker counts.

mod common;

use common::{build_prog, op_strategy, state_with, summary};
use gillian_core::explore::{explore, explore_with, ExploreConfig};
use gillian_solver::{Solver, SolverConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// The optimized pipeline with every result cache disabled: identical
/// simplification semantics, but each query recomputed from the
/// structural conjunction instead of answered by an interned-id lookup.
fn uncached() -> SolverConfig {
    SolverConfig {
        caching: false,
        ..SolverConfig::optimized()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_and_uncached_solvers_agree_on_random_programs(
        ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let prog = build_prog(&ops);
        let cached = explore(
            &prog,
            "main",
            state_with(Arc::new(Solver::optimized())),
            ExploreConfig::default(),
        );
        prop_assert!(cached.diagnostics.is_clean());
        let reference = explore(
            &prog,
            "main",
            state_with(Arc::new(Solver::new(uncached()))),
            ExploreConfig::default(),
        );
        prop_assert!(reference.diagnostics.is_clean());
        prop_assert_eq!(
            summary(&cached),
            summary(&reference),
            "id-keyed caches changed observable results"
        );
        prop_assert_eq!(cached.total_cmds, reference.total_cmds);
    }

    #[test]
    fn warm_interner_runs_match_cold_runs(
        ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let prog = build_prog(&ops);
        // Cold-ish leg (this process shares one global interner, so
        // "cold" is relative — which is exactly the point: results may
        // not depend on what is already interned).
        let first = explore(
            &prog,
            "main",
            state_with(Arc::new(Solver::optimized())),
            ExploreConfig::default(),
        );
        let first_summary = summary(&first);
        // Warm legs: every term of the program is now interned, so these
        // runs are maximal-sharing replays, serial and parallel.
        let again = explore(
            &prog,
            "main",
            state_with(Arc::new(Solver::optimized())),
            ExploreConfig::default(),
        );
        prop_assert_eq!(&summary(&again), &first_summary);
        prop_assert_eq!(again.total_cmds, first.total_cmds);
        for workers in [2usize, 4] {
            let par = explore_with(
                &prog,
                "main",
                state_with(Arc::new(Solver::optimized())),
                ExploreConfig { workers, ..Default::default() },
            );
            prop_assert_eq!(
                &summary(&par),
                &first_summary,
                "warm parallel ({}) diverged",
                workers
            );
            prop_assert_eq!(par.total_cmds, first.total_cmds);
        }
    }
}
