//! The instantiation-level differential battery: seeded random GIL
//! programs over the *real* While and MiniC memory models, each explored
//! symbolically and replayed concretely through the CSC oracle — with the
//! final memories compared through the instantiation's interpretation
//! function (`I(ε, µ̂) ≐ µ`, paper Def. 3.7).
//!
//! Reproducibility knobs (environment variables):
//!
//! - `GILLIAN_DIFFTEST_SEED`  — base seed (default 0); case `i` of a
//!   sub-battery runs with seed `base + salt + i` and a failing case
//!   prints the exact seed and op list to rerun.
//! - `GILLIAN_DIFFTEST_CASES` — programs per sub-battery (default 100).

use gillian::c::CInterpretation;
use gillian::core::difftest::{run_differential_with, InterpMemoryCheck};
use gillian::core::explore::{ExploreConfig, SearchStrategy};
use gillian::core::generate::{build_prog, gen_ops, MemDialect, Rng};
use gillian::core::memory::{ConcreteMemory, SymbolicMemory};
use gillian::core::soundness::MemoryInterpretation;
use gillian::solver::Solver;
use gillian::telemetry::Journal;
use gillian::while_lang::WhileInterpretation;
use std::sync::Arc;

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

/// Runs one sub-battery: `GILLIAN_DIFFTEST_CASES` programs of `dialect`,
/// memory-checked through `interp`, asserting zero divergences.
fn run_battery<I>(dialect: MemDialect, strategy: SearchStrategy, salt: u64, interp: I)
where
    I: MemoryInterpretation,
    I::Symbolic: SymbolicMemory,
    I::Concrete: ConcreteMemory + PartialEq + std::fmt::Debug,
{
    let base = env_u64("GILLIAN_DIFFTEST_SEED", 0);
    let cases = env_u64("GILLIAN_DIFFTEST_CASES", 100);
    let solver = Arc::new(Solver::optimized());
    let memcheck = InterpMemoryCheck(interp);
    let (mut paths, mut replayed, mut skipped) = (0usize, 0usize, 0usize);
    for i in 0..cases {
        let seed = base.wrapping_add(salt).wrapping_add(i);
        let ops = gen_ops(&mut Rng::new(seed), 14, dialect);
        let prog = build_prog(&ops, dialect);
        let report = run_differential_with::<I::Symbolic, I::Concrete, _>(
            &prog,
            "main",
            solver.clone(),
            battery_config(strategy),
            &memcheck,
        );
        assert!(
            report.agreed(),
            "seed {seed} ({dialect:?}/{strategy:?}): {} divergence(s), first: {}\nops: {ops:?}",
            report.divergences.len(),
            report.divergences[0],
        );
        paths += report.sym_paths;
        replayed += report.replayed;
        skipped += report.skipped.len();
    }
    // Bounded skips are expected: wrapping-infeasible false paths the
    // incomplete SAT checker admits correctly fail model extraction
    // (`no-model`, see DESIGN.md §13).
    assert!(replayed > 0, "battery replayed nothing");
    assert!(
        skipped * 3 <= paths,
        "too many skipped paths ({skipped}/{paths}) — the differential \
         guarantee is full of holes"
    );
    eprintln!(
        "difftest battery ({dialect:?}/{strategy:?}): \
         {paths} paths, {replayed} replayed, {skipped} skipped"
    );
}

#[test]
fn while_battery_dfs() {
    run_battery::<WhileInterpretation>(
        MemDialect::While,
        SearchStrategy::Dfs,
        0x77_0000,
        WhileInterpretation,
    );
}

#[test]
fn while_battery_bfs() {
    run_battery::<WhileInterpretation>(
        MemDialect::While,
        SearchStrategy::Bfs,
        0x77_1000,
        WhileInterpretation,
    );
}

#[test]
fn c_battery_dfs() {
    run_battery::<CInterpretation>(
        MemDialect::C,
        SearchStrategy::Dfs,
        0xC_0000,
        CInterpretation,
    );
}

#[test]
fn c_battery_bfs() {
    run_battery::<CInterpretation>(
        MemDialect::C,
        SearchStrategy::Bfs,
        0xC_1000,
        CInterpretation,
    );
}

/// The generator's hard-coded MiniC chunk literal must stay in sync with
/// the real `Chunk` serialization: the battery's `store`/`load` actions
/// are only meaningful if both sides parse the same chunk.
#[test]
fn generator_c_chunk_literal_matches_chunk_to_expr() {
    use gillian::c::chunks::Chunk;
    use gillian::core::generate::GenOp;
    use gillian::gil::Cmd;

    let prog = build_prog(
        &[GenOp::Mem(gillian::core::generate::MemOp::New)],
        MemDialect::C,
    );
    let main = prog.proc("main").expect("generated entry");
    let chunk = Chunk::int(8).to_expr();
    let uses_chunk = main.body.iter().any(|cmd| match cmd {
        Cmd::Action { arg, .. } => format!("{arg}").contains(&format!("{chunk}")),
        _ => false,
    });
    assert!(
        uses_chunk,
        "generator's chunk literal drifted from Chunk::int(8).to_expr() = {chunk}"
    );
}

/// The While property set is tiny by design ({"f", "g"}): collisions are
/// what makes the differential memory check interesting. Pin the shape of
/// the first allocation so seeds stay replayable across refactors.
#[test]
fn while_generated_programs_are_stable_across_runs() {
    let ops = gen_ops(&mut Rng::new(1234), 14, MemDialect::While);
    let again = gen_ops(&mut Rng::new(1234), 14, MemDialect::While);
    assert_eq!(ops, again);
    let a = build_prog(&ops, MemDialect::While);
    let b = build_prog(&again, MemDialect::While);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
