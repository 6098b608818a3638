//! Bytecode-vs-tree-walk differential battery: seeded random GIL programs
//! (the same `generate.rs` seed scheme the CSC difftest uses) explored on
//! the compiled register bytecode across DFS/BFS and 1–4 workers, and
//! enumerated by the reference tree walk (`interp::all_paths`). The two
//! must produce *identical* path identities: same branch traces, same
//! outcome kinds, same per-path command counts, same totals. The
//! bytecode compiler is a pure representation change (`DESIGN.md` §15);
//! any divergence here is a compiler bug, not a semantic choice.
//!
//! Reproducibility knobs (environment variables):
//!
//! - `GILLIAN_BYTECODE_SEED`  — base seed (default 0); case `i` runs with
//!   seed `base + salt + i`, printed on failure.
//! - `GILLIAN_BYTECODE_CASES` — programs per engine config (default 40).

use gillian_core::explore::{explore_with, ExploreConfig, ExploreResult, SearchStrategy};
use gillian_core::generate::{build_prog, gen_ops, MemDialect, Rng};
use gillian_core::interp::all_paths;
use gillian_core::memory::{SymBranch, SymbolicMemory};
use gillian_core::symbolic::SymbolicState;
use gillian_gil::Expr;
use gillian_solver::{PathCondition, Solver};
use gillian_telemetry::Journal;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Stateless echo memory: actions return their argument, so the battery
/// isolates the engine + evaluator (memory models have their own
/// bytecode batteries in `crates/while`).
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

type St = SymbolicState<EchoSym>;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// The schedule-independent identity of a run: branch trace, outcome
/// kind, and per-path command count for every path.
fn path_set(result: &ExploreResult<St>) -> BTreeSet<(Vec<u32>, String, u64)> {
    result
        .paths
        .iter()
        .map(|p| (p.trace.clone(), p.outcome.kind().to_string(), p.cmds))
        .collect()
}

fn config(strategy: SearchStrategy, workers: usize) -> ExploreConfig {
    ExploreConfig {
        strategy,
        workers,
        journal: Journal::disabled(),
        ..Default::default()
    }
}

fn run_battery(strategy: SearchStrategy, workers: usize, salt: u64) {
    let base = env_u64("GILLIAN_BYTECODE_SEED", 0);
    let cases = env_u64("GILLIAN_BYTECODE_CASES", 40);
    let solver = Arc::new(Solver::optimized());
    let mut paths = 0usize;
    for i in 0..cases {
        let seed = base.wrapping_add(salt).wrapping_add(i);
        let ops = gen_ops(&mut Rng::new(seed), 16, MemDialect::None);
        let prog = build_prog(&ops, MemDialect::None);
        let cfg = config(strategy, workers);
        let tree = all_paths(
            &prog,
            "main",
            St::new(solver.clone()),
            cfg.max_cmds_per_path,
        );
        let byte = explore_with(&prog, "main", St::new(solver.clone()), cfg);
        assert!(
            !byte.truncated && byte.dropped_paths == 0,
            "seed {seed}: the exploration hit a budget\nops: {ops:?}"
        );
        assert_eq!(
            path_set(&tree),
            path_set(&byte),
            "seed {seed} ({strategy:?}, {workers} workers): bytecode \
             diverged from tree walk\nops: {ops:?}"
        );
        assert_eq!(
            tree.total_cmds, byte.total_cmds,
            "seed {seed}: total command counts diverged"
        );
        assert_eq!(
            tree.errors().count(),
            byte.errors().count(),
            "seed {seed}: error path counts diverged"
        );
        paths += tree.paths.len();
    }
    assert!(paths > 0, "battery explored nothing");
    eprintln!("bytecode battery ({strategy:?}, {workers} workers): {paths} paths agreed");
}

#[test]
fn bytecode_matches_treewalk_dfs_serial() {
    run_battery(SearchStrategy::Dfs, 1, 0xB17E_0000);
}

#[test]
fn bytecode_matches_treewalk_bfs_serial() {
    run_battery(SearchStrategy::Bfs, 1, 0xB17E_1000);
}

#[test]
fn bytecode_matches_treewalk_dfs_parallel() {
    for workers in 2..=4 {
        run_battery(SearchStrategy::Dfs, workers, 0xB17E_2000 + workers as u64);
    }
}

#[test]
fn bytecode_matches_treewalk_bfs_parallel() {
    for workers in 2..=4 {
        run_battery(SearchStrategy::Bfs, workers, 0xB17E_3000 + workers as u64);
    }
}
