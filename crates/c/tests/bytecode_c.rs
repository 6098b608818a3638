//! Bytecode-vs-tree-walk equivalence on the MiniC memory: every shipped
//! Collections test, plus the §4.2 bug-finding harnesses, explored on the
//! compiled bytecode and enumerated by the reference tree walk
//! (`interp::all_paths`). The C literal fast paths
//! (`execute_action_coded`) are reachable only from the bytecode, so this
//! battery is what pins them to the general actions the tree walk calls:
//! identical `(trace, outcome kind, cmds)` sets and, per path, an equal
//! final memory.

mod common;

use gillian_c::collections::{self, buggy_prog};
use gillian_c::CSymMemory;
use gillian_core::explore::{explore, ExploreResult};
use gillian_core::interp::all_paths;
use gillian_core::symbolic::SymbolicState;
use gillian_gil::Prog;
use gillian_solver::Solver;
use std::sync::Arc;

type St = SymbolicState<CSymMemory>;

/// A path's `(trace, outcome kind, cmds)`.
type PathKey = (Vec<u32>, String, u64);

/// The paths of a run in trace order: `(trace, outcome kind, cmds)` and
/// the final memory.
fn paths(result: &ExploreResult<St>) -> Vec<(PathKey, &CSymMemory)> {
    let mut out: Vec<_> = result
        .paths
        .iter()
        .map(|p| {
            let key = (p.trace.clone(), p.outcome.kind().to_string(), p.cmds);
            (key, &p.state.memory)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Explores `entry` on the bytecode, compares the run with the reference
/// enumeration and returns it.
fn assert_backends_agree(
    label: &str,
    prog: &Prog,
    entry: &str,
    solver: &Arc<Solver>,
) -> ExploreResult<St> {
    let cfg = collections::table2_config();
    let tree = all_paths(prog, entry, St::new(solver.clone()), cfg.max_cmds_per_path);
    let byte = explore(prog, entry, St::new(solver.clone()), cfg);
    assert!(
        !byte.truncated && byte.dropped_paths == 0,
        "{label}: the exploration hit a budget"
    );
    let (tree_paths, byte_paths) = (paths(&tree), paths(&byte));
    let tree_keys: Vec<_> = tree_paths.iter().map(|(k, _)| k).collect();
    let byte_keys: Vec<_> = byte_paths.iter().map(|(k, _)| k).collect();
    assert_eq!(tree_keys, byte_keys, "{label}: path sets differ");
    for ((key, tm), (_, bm)) in tree_paths.iter().zip(&byte_paths) {
        assert_eq!(tm, bm, "{label}: final memories differ on {key:?}");
    }
    assert_eq!(tree.total_cmds, byte.total_cmds, "{label}");
    byte
}

#[test]
fn collections_bytecode_matches_treewalk() {
    let solver = Arc::new(Solver::optimized());
    let (mut tests, mut total) = (0, 0);
    for suite in collections::suite_names() {
        let (prog, entries) = collections::suite_prog(suite).expect("suite compiles");
        for entry in &entries {
            let label = format!("{suite}::{entry}");
            total += assert_backends_agree(&label, &prog, entry, &solver)
                .paths
                .len();
            tests += 1;
        }
    }
    assert_eq!(tests, 161, "every Table 2 test runs");
    eprintln!("collections bytecode battery: {tests} tests, {total} paths agreed");
}

#[test]
fn bug_harnesses_bytecode_matches_treewalk() {
    let solver = Arc::new(Solver::optimized());
    let mut errors = 0;
    for (i, (lib, harness)) in common::all().into_iter().enumerate() {
        let prog = buggy_prog(lib, harness).expect("harness compiles");
        let byte = assert_backends_agree(&format!("harness {i}"), &prog, "main", &solver);
        errors += byte.errors().count();
    }
    assert!(errors > 0, "the harnesses reach their bugs");
}
