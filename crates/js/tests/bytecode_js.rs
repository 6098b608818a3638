//! Bytecode-vs-tree-walk equivalence on the MiniJS memory: every shipped
//! Buckets test explored on the compiled bytecode and enumerated by the
//! reference tree walk (`interp::all_paths`). The JS literal fast paths
//! (`execute_action_coded`) are reachable only from the bytecode, so this
//! battery is what pins them to the general actions the tree walk calls:
//! identical `(trace, outcome kind, cmds)` sets and, per path, an equal
//! final memory.

use gillian_core::explore::{explore, ExploreResult};
use gillian_core::interp::all_paths;
use gillian_core::symbolic::SymbolicState;
use gillian_js::{buckets, JsSymMemory};
use gillian_solver::Solver;
use std::sync::Arc;

type St = SymbolicState<JsSymMemory>;

/// A path's `(trace, outcome kind, cmds)`.
type PathKey = (Vec<u32>, String, u64);

/// The paths of a run in trace order: `(trace, outcome kind, cmds)` and
/// the final memory.
fn paths(result: &ExploreResult<St>) -> Vec<(PathKey, &JsSymMemory)> {
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

fn assert_same_paths(label: &str, tree: &ExploreResult<St>, byte: &ExploreResult<St>) {
    let (tree_paths, byte_paths) = (paths(tree), paths(byte));
    let tree_keys: Vec<_> = tree_paths.iter().map(|(k, _)| k).collect();
    let byte_keys: Vec<_> = byte_paths.iter().map(|(k, _)| k).collect();
    assert_eq!(tree_keys, byte_keys, "{label}: path sets differ");
    for ((key, tm), (_, bm)) in tree_paths.iter().zip(&byte_paths) {
        assert_eq!(tm, bm, "{label}: final memories differ on {key:?}");
    }
    assert_eq!(tree.total_cmds, byte.total_cmds, "{label}");
}

#[test]
fn buckets_bytecode_matches_treewalk() {
    let solver = Arc::new(Solver::optimized());
    let (mut tests, mut total) = (0, 0);
    for suite in buckets::suite_names() {
        let (prog, entries) = buckets::suite_prog(suite);
        for entry in &entries {
            let label = format!("{suite}::{entry}");
            let cfg = buckets::table1_config();
            let tree = all_paths(&prog, entry, St::new(solver.clone()), cfg.max_cmds_per_path);
            let byte = explore(&prog, entry, St::new(solver.clone()), cfg);
            assert!(
                !byte.truncated && byte.dropped_paths == 0,
                "{label}: the exploration hit a budget"
            );
            assert_same_paths(&label, &tree, &byte);
            tests += 1;
            total += tree.paths.len();
        }
    }
    assert_eq!(tests, 74, "every Table 1 test runs");
    eprintln!("buckets bytecode battery: {tests} tests, {total} paths agreed");
}
