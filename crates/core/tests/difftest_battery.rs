//! The engine-level differential battery: seeded random memory-less GIL
//! programs, each explored symbolically and replayed concretely path by
//! path through the CSC oracle. Any disagreement is an engine bug.
//!
//! Reproducibility knobs (all environment variables):
//!
//! - `GILLIAN_DIFFTEST_SEED`  — base seed (default 0); case `i` runs with
//!   seed `base + i`, so a failing case prints the exact seed to rerun.
//! - `GILLIAN_DIFFTEST_CASES` — programs per sub-battery (default 100).

use gillian_core::difftest::run_differential;
use gillian_core::explore::{ExploreConfig, SearchStrategy};
use gillian_core::generate::{build_prog, gen_ops, MemDialect, Rng};
use gillian_core::memory::{ConcreteMemory, SymBranch, SymbolicMemory};
use gillian_gil::{Expr, Value};
use gillian_solver::{PathCondition, Solver};
use gillian_telemetry::Journal;
use std::sync::Arc;

/// Echo memories: both sides are stateless and return the action's
/// argument, so the only thing under test is the engine itself.
#[derive(Clone, Debug, Default)]
struct EchoSym;
impl SymbolicMemory for EchoSym {
    fn execute_action(
        self,
        _: &str,
        arg: &Expr,
        pc: &PathCondition,
        _: &Solver,
    ) -> Vec<SymBranch<Self>> {
        vec![SymBranch::ok(EchoSym, arg.clone(), pc.clone())]
    }
}

#[derive(Clone, Debug, Default)]
struct EchoConc;
impl ConcreteMemory for EchoConc {
    fn execute_action(&mut self, _: &str, arg: Value) -> Result<Value, Value> {
        Ok(arg)
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn battery_config(strategy: SearchStrategy) -> ExploreConfig {
    ExploreConfig {
        strategy,
        journal: Journal::disabled(),
        ..Default::default()
    }
}

fn run_battery(strategy: SearchStrategy, salt: u64) {
    let base = env_u64("GILLIAN_DIFFTEST_SEED", 0);
    let cases = env_u64("GILLIAN_DIFFTEST_CASES", 100);
    let solver = Arc::new(Solver::optimized());
    let (mut paths, mut replayed, mut skipped) = (0usize, 0usize, 0usize);
    for i in 0..cases {
        let seed = base.wrapping_add(salt).wrapping_add(i);
        let ops = gen_ops(&mut Rng::new(seed), 16, MemDialect::None);
        let prog = build_prog(&ops, MemDialect::None);
        let report = run_differential::<EchoSym, EchoConc>(
            &prog,
            "main",
            solver.clone(),
            battery_config(strategy),
        );
        assert!(
            report.agreed(),
            "seed {seed} ({strategy:?}): {} divergence(s), first: {}\nops: {ops:?}",
            report.divergences.len(),
            report.divergences[0],
        );
        paths += report.sym_paths;
        replayed += report.replayed;
        skipped += report.skipped.len();
    }
    // The oracle must actually be checking something. Some skips are
    // expected: the SAT checker's linear reasoning is incomplete over
    // bit operations and symbolic divisors, so wrapping-infeasible
    // "false paths" get explored optimistically and then correctly fail
    // model extraction (reported as `no-model`, see DESIGN.md §13). They
    // must stay a bounded minority.
    assert!(replayed > 0, "battery replayed nothing");
    assert!(
        skipped * 3 <= paths,
        "too many skipped paths ({skipped}/{paths}) — the differential \
         guarantee is full of holes"
    );
    eprintln!(
        "difftest battery ({strategy:?}): {paths} paths, {replayed} replayed, {skipped} skipped"
    );
}

#[test]
fn engine_battery_dfs() {
    run_battery(SearchStrategy::Dfs, 0x5EED_0000);
}

#[test]
fn engine_battery_bfs() {
    run_battery(SearchStrategy::Bfs, 0x5EED_1000);
}
