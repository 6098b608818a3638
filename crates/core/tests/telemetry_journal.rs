//! Event-journal properties (DESIGN.md §11):
//!
//! 1. **Schedule independence** — the merged journal's path ids and fork
//!    edges depend only on the program, not on the worker count or
//!    scheduling: 1 worker and 4 workers produce identical finished-path
//!    sets and fork-edge sets, and repeated 4-worker runs are
//!    *identical* after the deterministic merge.
//! 2. **JSONL round-trip** — a run traced through an explicit
//!    [`Journal::jsonl_sink`] writes a schema-valid JSONL file with
//!    exactly one `path_finished` record per reported path.
//! 3. **Deadline attribution** — a deadline hit names the path it parked.
//!
//! Journals here are installed explicitly on [`ExploreConfig`] — never
//! via `GILLIAN_TRACE` (the env is read once per process and would leak
//! across parallel test binaries).

mod common;

use common::{build_prog, state, Op};
use gillian_core::explore::{explore, explore_with, ExploreConfig};
use gillian_core::memory::{SymBranch, SymbolicMemory};
use gillian_core::symbolic::SymbolicState;
use gillian_gil::{Cmd, Expr, Proc, Prog};
use gillian_solver::{PathCondition, Solver};
use gillian_telemetry::{validate_jsonl, Event, EventRecord, Journal};
use std::sync::Arc;
use std::time::Duration;

/// A ten-way branching program: 2^10 = 1024 paths with real fork
/// structure at every level.
fn wide_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..10u8 {
        ops.push(Op::Sym);
        ops.push(Op::Branch(i, 1));
    }
    ops
}

/// The journal's finished paths as a sorted `(path, outcome)` set.
fn finished_set(events: &[EventRecord]) -> Vec<(Vec<u32>, String)> {
    let mut out: Vec<(Vec<u32>, String)> = events
        .iter()
        .filter_map(|r| match &r.event {
            Event::PathFinished { path, outcome, .. } => Some((path.clone(), outcome.to_string())),
            _ => None,
        })
        .collect();
    out.sort();
    out
}

/// The journal's fork edges as a sorted `(parent, arms)` set.
fn fork_set(events: &[EventRecord]) -> Vec<(Vec<u32>, u32)> {
    let mut out: Vec<(Vec<u32>, u32)> = events
        .iter()
        .filter_map(|r| match &r.event {
            Event::PathForked { parent, arms } => Some((parent.clone(), *arms)),
            _ => None,
        })
        .collect();
    out.sort();
    out
}

fn run_journaled(workers: usize) -> (usize, Vec<EventRecord>) {
    let journal = Journal::enabled();
    let cfg = ExploreConfig {
        workers,
        journal: journal.clone(),
        ..Default::default()
    };
    let prog = build_prog(&wide_ops());
    let r = if workers > 1 {
        explore_with(&prog, "main", state(), cfg)
    } else {
        explore(&prog, "main", state(), cfg)
    };
    (r.paths.len(), journal.last_run().to_vec())
}

#[test]
fn merged_journal_is_schedule_independent() {
    let (paths1, serial) = run_journaled(1);
    let (paths4, par) = run_journaled(4);
    assert_eq!(paths1, 1024);
    assert_eq!(paths4, 1024);
    assert_eq!(
        finished_set(&serial),
        finished_set(&par),
        "finished-path sets must not depend on scheduling"
    );
    assert_eq!(
        fork_set(&serial),
        fork_set(&par),
        "fork edges must not depend on scheduling"
    );
    // The deterministic merge goes further than set equality: repeated
    // parallel runs produce the same event sequence modulo timestamps,
    // sequence numbers, and worker attribution.
    let strip = |events: &[EventRecord]| -> Vec<(String, Option<Vec<u32>>)> {
        events
            .iter()
            .map(|r| (r.event.kind().to_string(), r.event.path().cloned()))
            .collect()
    };
    let (_, again) = run_journaled(4);
    assert_eq!(
        strip(&par),
        strip(&again),
        "the merged event order must be deterministic"
    );
}

#[test]
fn jsonl_trace_round_trips_with_one_finish_per_path() {
    let path =
        std::env::temp_dir().join(format!("gillian-journal-test-{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path").to_string();
    let _ = std::fs::remove_file(&path);

    let journal = Journal::jsonl_sink(path_str.clone());
    let cfg = ExploreConfig {
        journal: journal.clone(),
        ..Default::default()
    };
    let prog = build_prog(&wide_ops());
    let r = explore(&prog, "main", state(), cfg);
    assert_eq!(r.paths.len(), 1024);
    assert_eq!(
        r.report.trace_path.as_deref(),
        Some(path_str.as_str()),
        "the report must point at the written trace"
    );

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate_jsonl(&text).expect("trace must be schema-valid");
    assert_eq!(summary.runs, 1);
    assert_eq!(
        summary.paths_finished as usize,
        r.paths.len(),
        "exactly one path_finished per reported path"
    );
    assert_eq!(summary.dropped, 0);
    assert!(
        summary.sat_queries > 0,
        "solver queries must be journaled through the state's solver"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn disabled_journal_records_nothing_but_report_still_fills() {
    let cfg = ExploreConfig {
        journal: Journal::disabled(),
        ..Default::default()
    };
    let prog = build_prog(&wide_ops());
    let r = explore(&prog, "main", state(), cfg);
    assert_eq!(r.paths.len(), 1024);
    // Metrics and tree stats never depend on the journal...
    assert_eq!(r.report.tree.leaves, 1024);
    assert_eq!(r.report.tree.max_depth, 10);
    assert!(r.report.metrics.counter("solver.sat_queries") > 0);
    // ...while journal-derived sections stay empty.
    assert_eq!(r.report.events, 0);
    assert!(r.report.slow_queries.is_empty());
    assert!(r.report.trace_path.is_none());
}

/// Echoes its argument after a short sleep, so a run over many actions
/// outlives a small deadline.
#[derive(Clone, Debug, Default)]
struct SlowMem;
impl SymbolicMemory for SlowMem {
    fn execute_action(
        self,
        _: &str,
        arg: &Expr,
        pc: &PathCondition,
        _: &Solver,
    ) -> Vec<SymBranch<Self>> {
        std::thread::sleep(Duration::from_millis(5));
        vec![SymBranch::ok(SlowMem, arg.clone(), pc.clone())]
    }
}

/// A deadline hit is journaled against the path that was about to step
/// when it fired, and that path is parked in the result as truncated.
#[test]
fn deadline_hit_names_a_recorded_path() {
    // Six forks, each followed by a slow action: 126 actions, far more
    // than the deadline admits, and the deadline fires below the root.
    let mut body = Vec::new();
    for i in 0..6u32 {
        let x = format!("x{i}");
        body.push(Cmd::isym(&x, i));
        body.push(Cmd::IfGoto(Expr::pvar(&x).lt(Expr::int(0)), body.len() + 1));
        body.push(Cmd::Action {
            lhs: "r".into(),
            name: "slow".into(),
            arg: Expr::int(0),
        });
    }
    body.push(Cmd::Return(Expr::int(0)));
    let prog = Prog::from_procs([Proc::new("main", [], body)]);
    let journal = Journal::enabled();
    let cfg = ExploreConfig {
        workers: 1,
        journal: journal.clone(),
        ..Default::default()
    }
    .with_deadline(Duration::from_millis(40));
    let state = SymbolicState::<SlowMem>::new(Arc::new(Solver::optimized()));
    let r = explore_with(&prog, "main", state, cfg);
    assert!(r.diagnostics.deadline_hits > 0, "the deadline never fired");
    let events = journal.last_run();
    let hits: Vec<&Vec<u32>> = events
        .iter()
        .filter_map(|rec| match &rec.event {
            Event::DeadlineHit { path } => Some(path),
            _ => None,
        })
        .collect();
    assert_eq!(hits.len(), 1, "one worker hits the deadline once");
    assert!(
        r.paths.iter().any(|p| &p.trace == hits[0]),
        "the deadline hit names {:?}, which the run did not record",
        hits[0]
    );
}
