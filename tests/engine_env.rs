//! The engine reads none of the `GILLIAN_*` run variables: a run is
//! configured by its `ExploreConfig` alone, and the bins turn the
//! environment into one (`gillian_bench::explore_config_from_env`).
//!
//! This binary holds a single test because it sets process-wide
//! environment variables.

use gillian::core::explore::{explore, ExploreConfig};
use gillian::core::symbolic::SymbolicState;
use gillian::solver::Solver;
use gillian::while_lang::{compile_program, parse_program, WhileSymMemory};
use std::sync::Arc;

/// Nested calls around one symbolic branch: two paths.
const PROGRAM: &str = r#"
    proc inc(x) { y := x + 1; return y; }
    proc twice(x) { a := inc(x); b := inc(a); return b; }
    proc main() {
        s := symb();
        t := twice(s);
        u := twice(s);
        v := twice(t);
        if (s < 3) { w := inc(u); } else { w := inc(v); }
        return w;
    }
"#;

#[test]
fn default_config_ignores_the_run_variables() {
    let dir = std::env::temp_dir().join(format!("gillian-engine-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("run.jsonl");
    let live = dir.join("run.live.jsonl");
    std::env::set_var("GILLIAN_TRACE", &trace);
    std::env::set_var("GILLIAN_LIVE", &live);

    let prog = compile_program(&parse_program(PROGRAM).expect("parse"));
    let solver = Arc::new(Solver::optimized());
    for run in 0..2 {
        let initial = SymbolicState::<WhileSymMemory>::new(solver.clone());
        let result = explore(&prog, "main", initial, ExploreConfig::default());
        assert!(!result.bounded(), "run {run} must explore exhaustively");
        assert_eq!(result.paths.len(), 2, "run {run}");
        assert_eq!(
            result.report.trace_path, None,
            "run {run}: journal enabled from the environment"
        );
    }
    for file in [&trace, &live] {
        assert!(!file.exists(), "{} was written", file.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
