//! Every run leaves its solver disarmed. The engine arms a run on the
//! state's solver (deadline, journal, fault probe) and must clear all
//! three at run end, whichever entry point started the run and however
//! it stopped. A solver left armed would answer later queries `Unknown`
//! or keep journaling into a finished run.

use gillian::core::checkpoint::StateCtx;
use gillian::core::explore::{explore, explore_resume, ExploreConfig};
use gillian::core::faults::FaultPlan;
use gillian::core::symbolic::SymbolicState;
use gillian::core::CheckpointConfig;
use gillian::gil::{Expr, LVar};
use gillian::solver::{PathCondition, SatResult, Solver};
use gillian::telemetry::Journal;
use gillian::while_lang::{compile_program, parse_program, WhileSymMemory};
use std::sync::Arc;
use std::time::Duration;

type St = SymbolicState<WhileSymMemory>;

/// Four symbolic branches around calls: 16 paths, enough
/// scheduling points for a kill to land mid-run.
const PROGRAM: &str = r#"
    proc inc(x) { y := x + 1; return y; }
    proc main() {
        a := symb(); b := symb(); c := symb(); d := symb();
        n := 0;
        if (a > 0) { n := inc(n); } else { n := n + 2; }
        if (b > 0) { n := inc(n); } else { n := n + 2; }
        if (c > 0) { n := inc(n); } else { n := n + 2; }
        if (d > 0) { n := inc(n); } else { n := n + 2; }
        i := 0;
        while (i < 5) { i := inc(i); }
        return n;
    }
"#;

/// A run armed with everything the engine can install: an already
/// expired deadline, a fault plan that answers every query `Unknown` and
/// an enabled journal.
fn armed_config() -> ExploreConfig {
    ExploreConfig {
        deadline: Some(Duration::ZERO),
        faults: Some(Arc::new(FaultPlan::seeded(3).with_unknown_rate(1 << 16))),
        journal: Journal::enabled(),
        ..ExploreConfig::default()
    }
}

/// `solver` answers a query it has never seen `Sat`, and has no journal
/// armed.
fn assert_disarmed(solver: &Solver, query: i64, how: &str) {
    let x = Expr::lvar(LVar(1_000 + query as u64));
    let pc = PathCondition::new();
    let fresh = Expr::int(query)
        .lt(x.clone())
        .and(x.lt(Expr::int(query + 3)));
    assert_eq!(
        solver.sat_with(&pc, &fresh),
        SatResult::Sat,
        "{how}: the solver still carries the run's interrupt or fault probe"
    );
    assert!(!solver.journal_enabled(), "{how}: journal left installed");
}

#[test]
fn every_entry_point_disarms_its_solver() {
    let prog = compile_program(&parse_program(PROGRAM).expect("parse"));

    let solver = Arc::new(Solver::optimized());
    let result = explore(&prog, "main", St::new(solver.clone()), armed_config());
    assert!(result.bounded(), "the expired deadline must bound the run");
    assert_disarmed(&solver, 1, "explore");

    // The same run without the deadline stops only when its queue drains.
    let solver = Arc::new(Solver::optimized());
    let cfg = ExploreConfig {
        deadline: None,
        ..armed_config()
    };
    explore(&prog, "main", St::new(solver.clone()), cfg);
    assert_disarmed(&solver, 2, "explore run to the end");

    // A checkpoint to resume from: a healthy run killed mid-way.
    let ckpt = std::env::temp_dir().join(format!("gillian-disarm-{}.ckpt", std::process::id()));
    let kill = ExploreConfig {
        faults: Some(Arc::new(FaultPlan::seeded(7).kill_at(40))),
        checkpoint: Some(CheckpointConfig::at(&ckpt)),
        ..ExploreConfig::default()
    };
    let cut = explore(&prog, "main", St::new(Arc::new(Solver::optimized())), kill);
    assert!(cut.killed, "the injected kill must fire mid-run");

    let solver = Arc::new(Solver::optimized());
    let resumed = explore_resume(
        &prog,
        &ckpt,
        &StateCtx::new(solver.clone()),
        St::new(solver.clone()),
        armed_config(),
    )
    .expect("resume from checkpoint");
    let _ = std::fs::remove_file(&ckpt);
    assert!(resumed.result.bounded());
    assert_disarmed(&solver, 3, "explore_resume");
}
