//! Bytecode-vs-tree-walk equivalence over *memory-bearing* programs: the
//! seeded `generate.rs` While dialect (`lookup`/`mutate`/`dispose` over
//! symbolic locations) explored on both evaluator backends. The engine's
//! own battery (`crates/core/tests/bytecode_equiv.rs`) covers the pure
//! fragment; this one makes sure compiled action arguments — the lists
//! the bytecode evaluator folds in value space — reach the While memory
//! model bit-for-bit, across DFS/BFS and serial/parallel exploration.
//! The While literal fast paths (`execute_action_coded`) are reachable
//! only from the bytecode backend, so this battery also pins them to the
//! general actions: identical `(trace, outcome kind, cmds)` sets and, per
//! path, an equal outcome value and final memory.

use gillian_core::explore::{
    explore_with, ExploreConfig, ExploreOutcome, ExploreResult, SearchStrategy,
};
use gillian_core::generate::{build_prog, gen_ops, MemDialect, Rng};
use gillian_core::symbolic::SymbolicState;
use gillian_gil::Expr;
use gillian_solver::Solver;
use gillian_while::WhileSymMemory;
use std::sync::Arc;

type St = SymbolicState<WhileSymMemory>;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// A path's `(trace, outcome kind, cmds)`.
type PathKey = (Vec<u32>, String, u64);

/// The paths of a run in trace order: `(trace, outcome kind, cmds)`, the
/// outcome and the final memory.
fn sorted_paths(
    result: &ExploreResult<St>,
) -> Vec<(PathKey, &ExploreOutcome<Expr>, &WhileSymMemory)> {
    let mut out: Vec<_> = result
        .paths
        .iter()
        .map(|p| {
            let key = (p.trace.clone(), p.outcome.kind().to_string(), p.cmds);
            (key, &p.outcome, &p.state.memory)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn config(strategy: SearchStrategy, workers: usize, bytecode: bool) -> ExploreConfig {
    ExploreConfig {
        strategy,
        workers,
        bytecode: Some(bytecode),
        ..Default::default()
    }
}

fn run_battery(strategy: SearchStrategy, workers: usize, salt: u64) {
    let base = env_u64("GILLIAN_BYTECODE_SEED", 0);
    let cases = env_u64("GILLIAN_BYTECODE_CASES", 25);
    let solver = Arc::new(Solver::optimized());
    let mut paths = 0usize;
    for i in 0..cases {
        let seed = base.wrapping_add(salt).wrapping_add(i);
        let ops = gen_ops(&mut Rng::new(seed), 14, MemDialect::While);
        let prog = build_prog(&ops, MemDialect::While);
        let tree = explore_with(
            &prog,
            "main",
            St::new(solver.clone()),
            config(strategy, workers, false),
        );
        let byte = explore_with(
            &prog,
            "main",
            St::new(solver.clone()),
            config(strategy, workers, true),
        );
        let (tree_paths, byte_paths) = (sorted_paths(&tree), sorted_paths(&byte));
        let tree_keys: Vec<_> = tree_paths.iter().map(|(k, ..)| k).collect();
        let byte_keys: Vec<_> = byte_paths.iter().map(|(k, ..)| k).collect();
        assert_eq!(
            tree_keys, byte_keys,
            "seed {seed} ({strategy:?}, {workers} workers): bytecode \
             diverged from tree walk on While memory\nops: {ops:?}"
        );
        for ((key, t_out, t_mem), (_, b_out, b_mem)) in tree_paths.iter().zip(&byte_paths) {
            assert_eq!(t_out, b_out, "seed {seed}: outcomes differ on {key:?}");
            assert_eq!(
                t_mem, b_mem,
                "seed {seed}: final memories differ on {key:?}"
            );
        }
        assert_eq!(tree.total_cmds, byte.total_cmds, "seed {seed}");
        paths += tree.paths.len();
    }
    assert!(paths > 0, "battery explored nothing");
    eprintln!("while bytecode battery ({strategy:?}, {workers} workers): {paths} paths agreed");
}

#[test]
fn while_bytecode_matches_treewalk_serial() {
    run_battery(SearchStrategy::Dfs, 1, 0x3317_0000);
    run_battery(SearchStrategy::Bfs, 1, 0x3317_1000);
}

#[test]
fn while_bytecode_matches_treewalk_parallel() {
    for workers in 2..=4 {
        run_battery(SearchStrategy::Dfs, workers, 0x3317_2000 + workers as u64);
        run_battery(SearchStrategy::Bfs, workers, 0x3317_3000 + workers as u64);
    }
}
