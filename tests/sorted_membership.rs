//! A program shaped like the deep container tests: pairwise-distinct
//! symbolic elements inserted into a sorted list, then a membership test.
//! Its path conditions grow deep, and the then-arms of its `v < x` and
//! `v = y` guards are equality deltas on a solved prefix, which the
//! solver's equality extension answers without re-solving the residual.
//!
//! Every `{caching, incremental}` solver configuration must explore the
//! same paths with the same outcomes and replay the same number of them
//! concretely, with no divergence; the incremental ones must answer some
//! queries through the equality extension.

use gillian::core::difftest::{run_differential_with, InterpMemoryCheck};
use gillian::core::explore::{explore, ExploreConfig, ExploreOutcome};
use gillian::core::symbolic::SymbolicState;
use gillian::solver::{Solver, SolverConfig};
use gillian::while_lang::{
    compile_program, parse_program, WhileConcMemory, WhileInterpretation, WhileSymMemory,
};
use std::sync::Arc;

/// Inserts `x + 3`, `y - 7`, `z + 11` and `w` into a list kept
/// sorted behind a head node and before a tail sentinel, asserts that
/// the third element is found, and returns whether a fresh `q` is.
const SORTED_LIST: &str = r#"
proc insert(head, x) {
    prev := head;
    cur := head.next;
    go := true;
    while (go) {
        last := cur.last;
        if (last = true) {
            go := false;
        } else {
            v := cur.value;
            if (v < x) {
                prev := cur;
                cur := cur.next;
            } else {
                go := false;
            }
        }
    }
    n := { value: x, next: cur, last: false };
    prev.next := n;
    return 0;
}

proc contains(head, x) {
    cur := head.next;
    found := false;
    go := true;
    while (go) {
        last := cur.last;
        if (last = true) {
            go := false;
        } else {
            v := cur.value;
            if (v = x) {
                found := true;
                go := false;
            } else {
                cur := cur.next;
            }
        }
    }
    return found;
}

proc main() {
    x := symb();
    y := symb();
    z := symb();
    w := symb();
    q := symb();
    a := x + 3;
    b := y - 7;
    c := z + 11;
    assume (a != b and a != c and a != w and b != c and b != w and c != w);
    tail := { value: 0, next: 0, last: true };
    head := { value: 0, next: tail, last: false };
    r := insert(head, a);
    r := insert(head, b);
    r := insert(head, c);
    r := insert(head, w);
    f := contains(head, c);
    assert (f = true);
    g := contains(head, q + 1);
    return g;
}
"#;

/// Each explored path's branch trace and outcome, sorted.
type PathSet = Vec<(Vec<u32>, String)>;

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
fn every_solver_configuration_explores_the_same_sorted_list_paths() {
    let module = parse_program(SORTED_LIST).expect("the program parses");
    let prog = compile_program(&module);
    let memcheck = InterpMemoryCheck(WhileInterpretation);
    let mut reference: Option<(PathSet, usize, String)> = None;
    for (name, cfg) in configs() {
        let solver = Arc::new(Solver::new(cfg));
        let initial = SymbolicState::<WhileSymMemory>::new(solver.clone());
        let result = explore(&prog, "main", initial, ExploreConfig::default());
        assert!(!result.truncated, "{name}: the budgets must not bind");
        let mut paths: PathSet = result
            .paths
            .iter()
            .map(|p| {
                let outcome = match &p.outcome {
                    ExploreOutcome::Normal(v) => format!("normal {v}"),
                    ExploreOutcome::Error(v) => format!("error {v}"),
                    other => format!("{other:?}"),
                };
                (p.trace.clone(), outcome)
            })
            .collect();
        paths.sort();
        assert!(
            paths
                .iter()
                .all(|(_, o)| o.starts_with("normal") || o == "Vanished"),
            "{name}: a path ends in an error: {paths:?}"
        );
        let stats = solver.stats();
        assert_eq!(
            stats.equality_extension_hits > 0,
            cfg.incremental,
            "{name}: the equality extension answers exactly when solving incrementally ({stats:?})"
        );

        let report = run_differential_with::<WhileSymMemory, WhileConcMemory, _>(
            &prog,
            "main",
            Arc::new(Solver::new(cfg)),
            ExploreConfig::default(),
            &memcheck,
        );
        assert!(
            report.agreed(),
            "{name}: {} divergence(s), first: {}",
            report.divergences.len(),
            report.divergences[0],
        );
        match &reference {
            None => reference = Some((paths, report.replayed, name)),
            Some((expected, replayed, first)) => {
                assert_eq!(&paths, expected, "{name} explores other paths than {first}");
                assert_eq!(
                    report.replayed, *replayed,
                    "{name} replays a different number of paths than {first}"
                );
            }
        }
    }
    let (paths, replayed, _) = reference.expect("four configurations ran");
    assert!(paths.len() > 100, "deep enough: {} paths", paths.len());
    assert!(replayed > 100, "{replayed} paths replayed");
}
