//! Restricted completeness across solver configurations: no feasible
//! symbolic path may be lost to an unsound `Unsat`, whichever of the
//! exact cache and incremental solving is on.
//!
//! Each generated While program runs through the differential oracle
//! under all four `{caching, incremental}` configurations, with a fresh
//! solver per run. Every configuration must replay the same number of
//! paths concretely, with no divergence. Configurations may still differ
//! in paths that have no model (an `Unsat` is sound in each, but not
//! always the same one: see `check_extension`), so only replayed paths
//! are compared.
//!
//! Seed 1715 pins a path an interval rule used to refute: the hull of a
//! division whose dividend reaches `i64::MIN` and whose divisor may be
//! -1 excluded every positive quotient, and the path with `x = -1` was
//! pruned although it replays concretely. Seeds 1238, 1537 and 1692
//! explore different path counts with incremental solving on and off.

use gillian::core::difftest::{run_differential_with, InterpMemoryCheck};
use gillian::core::explore::{explore, ExploreConfig};
use gillian::core::generate::{build_prog, gen_ops, MemDialect, Rng};
use gillian::core::symbolic::SymbolicState;
use gillian::solver::{Solver, SolverConfig};
use gillian::while_lang::{WhileConcMemory, WhileInterpretation, WhileSymMemory};
use std::sync::Arc;

/// The branch trace under which seed 1715 used to lose every path.
const SEED_1715_TRACE: [u32; 8] = [0, 0, 1, 0, 1, 0, 0, 1];

fn configs() -> Vec<(String, SolverConfig)> {
    let mut out = Vec::new();
    for caching in [false, true] {
        for incremental in [false, true] {
            out.push((
                format!("caching={caching} incremental={incremental}"),
                SolverConfig {
                    caching,
                    incremental,
                    ..SolverConfig::optimized()
                },
            ));
        }
    }
    out
}

#[test]
fn every_solver_configuration_replays_the_same_paths() {
    let memcheck = InterpMemoryCheck(WhileInterpretation);
    for seed in (1700..1730).chain([1238, 1537, 1692]) {
        let ops = gen_ops(&mut Rng::new(seed), 14, MemDialect::While);
        let prog = build_prog(&ops, MemDialect::While);
        let mut replayed: Option<(usize, String)> = None;
        for (name, cfg) in configs() {
            let report = run_differential_with::<WhileSymMemory, WhileConcMemory, _>(
                &prog,
                "main",
                Arc::new(Solver::new(cfg)),
                ExploreConfig::default(),
                &memcheck,
            );
            assert!(
                report.agreed(),
                "seed {seed} ({name}): {} divergence(s), first: {}",
                report.divergences.len(),
                report.divergences[0],
            );
            match &replayed {
                None => replayed = Some((report.replayed, name.clone())),
                Some((expected, first)) => assert_eq!(
                    report.replayed, *expected,
                    "seed {seed}: {name} replays a different number of paths than {first}"
                ),
            }
            if seed == 1715 {
                let initial = SymbolicState::<WhileSymMemory>::new(Arc::new(Solver::new(cfg)));
                let result = explore(&prog, "main", initial, ExploreConfig::default());
                assert!(
                    result
                        .paths
                        .iter()
                        .any(|p| p.trace.starts_with(&SEED_1715_TRACE)),
                    "seed 1715 ({name}): the feasible branch {SEED_1715_TRACE:?} was pruned"
                );
            }
        }
    }
}
