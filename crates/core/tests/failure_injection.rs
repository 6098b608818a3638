//! Failure injection: deliberately broken memory models must be caught by
//! the differential soundness checkers. This is the evidence that the
//! empirical MA-RS/MA-RC checks (paper Def. 3.7) and the end-to-end
//! Theorem 3.6 check are not vacuous — they fail when a tool developer
//! gets a memory model wrong in the ways that actually happen.

//!
//! The second half injects *runtime* failures — a memory action that
//! panics, and one that spins forever — and checks the resilience story:
//! the run completes under its deadline, the faulty path is reported as an
//! engine error (or deadline-truncated), and sibling paths are unaffected.

use gillian_core::explore::{explore, explore_with, ExploreConfig, ExploreOutcome, ExploreResult};
use gillian_core::memory::{ConcreteMemory, SymBranch, SymbolicMemory};
use gillian_core::soundness::{check_action, check_program, MemoryInterpretation};
use gillian_core::symbolic::SymbolicState;
use gillian_gil::{Cmd, Expr, LVar, Proc, Prog, Value};
use gillian_solver::{Model, PathCondition, Solver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The reference concrete memory: one cell holding a value.
#[derive(Clone, Debug, Default, PartialEq)]
struct Cell(Option<Value>);

impl ConcreteMemory for Cell {
    fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value> {
        match name {
            "set" => {
                self.0 = Some(arg);
                Ok(Value::Bool(true))
            }
            "get" => self.0.clone().ok_or_else(|| Value::str("empty cell")),
            other => Err(Value::str(format!("unknown action {other}"))),
        }
    }
}

/// A correct symbolic cell.
#[derive(Clone, Debug, Default, PartialEq)]
struct SymCell(Option<Expr>);

impl SymbolicMemory for SymCell {
    fn execute_action(
        self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        _solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        match name {
            "set" => vec![SymBranch::ok(
                SymCell(Some(arg.clone())),
                Expr::tt(),
                pc.clone(),
            )],
            "get" => match &self.0 {
                Some(e) => vec![SymBranch::ok(self.clone(), e.clone(), pc.clone())],
                None => vec![SymBranch::err(
                    self.clone(),
                    Expr::str("empty cell"),
                    pc.clone(),
                )],
            },
            _ => vec![],
        }
    }

    fn lvars(&self) -> std::collections::BTreeSet<LVar> {
        self.0.iter().flat_map(|e| e.lvars()).collect()
    }
}

/// BROKEN: `get` returns the stored value *plus one* (a transcription bug).
#[derive(Clone, Debug, Default, PartialEq)]
struct OffByOneCell(Option<Expr>);

impl SymbolicMemory for OffByOneCell {
    fn execute_action(
        self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        _solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        match name {
            "set" => vec![SymBranch::ok(
                OffByOneCell(Some(arg.clone())),
                Expr::tt(),
                pc.clone(),
            )],
            "get" => match &self.0 {
                Some(e) => vec![SymBranch::ok(
                    self.clone(),
                    e.clone().add(Expr::int(1)), // BUG
                    pc.clone(),
                )],
                None => vec![SymBranch::err(
                    self.clone(),
                    Expr::str("empty cell"),
                    pc.clone(),
                )],
            },
            _ => vec![],
        }
    }

    fn lvars(&self) -> std::collections::BTreeSet<LVar> {
        self.0.iter().flat_map(|e| e.lvars()).collect()
    }
}

/// BROKEN: `get` of an empty cell claims success instead of erroring
/// (a missing error branch — MA-RS outcome-kind violation).
#[derive(Clone, Debug, Default, PartialEq)]
struct NoErrorCell(Option<Expr>);

impl SymbolicMemory for NoErrorCell {
    fn execute_action(
        self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        _solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        match name {
            "set" => vec![SymBranch::ok(
                NoErrorCell(Some(arg.clone())),
                Expr::tt(),
                pc.clone(),
            )],
            "get" => vec![SymBranch::ok(
                self.clone(),
                self.0.clone().unwrap_or(Expr::int(0)), // BUG: never errors
                pc.clone(),
            )],
            _ => vec![],
        }
    }
}

struct CellInterp;
impl MemoryInterpretation for CellInterp {
    type Concrete = Cell;
    type Symbolic = SymCell;
    fn interpret(&self, model: &Model, sym: &SymCell) -> Result<Cell, String> {
        Ok(Cell(match &sym.0 {
            Some(e) => Some(model.eval(e).map_err(|e| e.to_string())?),
            None => None,
        }))
    }
}

struct OffByOneInterp;
impl MemoryInterpretation for OffByOneInterp {
    type Concrete = Cell;
    type Symbolic = OffByOneCell;
    fn interpret(&self, model: &Model, sym: &OffByOneCell) -> Result<Cell, String> {
        Ok(Cell(match &sym.0 {
            Some(e) => Some(model.eval(e).map_err(|e| e.to_string())?),
            None => None,
        }))
    }
}

fn get_set_program() -> Prog {
    Prog::from_procs([Proc::new(
        "main",
        [],
        vec![
            Cmd::isym("x", 0),
            Cmd::action("_", "set", Expr::pvar("x")),
            Cmd::action("y", "get", Expr::int(0)),
            Cmd::Return(Expr::pvar("y")),
        ],
    )])
}

#[test]
fn correct_memory_passes_both_checks() {
    let solver = Solver::optimized();
    let mem = SymCell(Some(Expr::lvar(LVar(0))));
    let checked = check_action(
        &CellInterp,
        &solver,
        &mem,
        "get",
        &Expr::int(0),
        &PathCondition::new(),
    )
    .expect("correct memory satisfies MA-RS");
    assert!(checked > 0);

    let report = check_program::<SymCell, Cell>(
        &get_set_program(),
        "main",
        Arc::new(Solver::optimized()),
        ExploreConfig::default(),
    )
    .expect("correct memory is restricted-sound");
    assert!(report.replayed > 0);
}

#[test]
fn wrong_value_output_is_caught_by_ma_rs() {
    let solver = Solver::optimized();
    let mem = OffByOneCell(Some(Expr::lvar(LVar(0))));
    let problems = check_action(
        &OffByOneInterp,
        &solver,
        &mem,
        "get",
        &Expr::int(0),
        &PathCondition::new(),
    )
    .expect_err("the off-by-one transcription must be caught");
    assert!(
        problems
            .iter()
            .any(|d| d.context.contains("value outputs differ")),
        "{problems:#?}"
    );
}

#[test]
fn wrong_value_output_is_caught_end_to_end() {
    let result = check_program::<OffByOneCell, Cell>(
        &get_set_program(),
        "main",
        Arc::new(Solver::optimized()),
        ExploreConfig::default(),
    );
    let problems = result.expect_err("end-to-end replay must diverge");
    assert!(
        problems
            .iter()
            .any(|d| d.context.contains("return values differ")),
        "{problems:#?}"
    );
}

#[test]
fn missing_error_branch_is_caught_end_to_end() {
    // Reading the never-written cell: symbolic claims N(0), concrete errs.
    let prog = Prog::from_procs([Proc::new(
        "main",
        [],
        vec![
            Cmd::action("y", "get", Expr::int(0)),
            Cmd::Return(Expr::pvar("y")),
        ],
    )]);
    let result = check_program::<NoErrorCell, Cell>(
        &prog,
        "main",
        Arc::new(Solver::optimized()),
        ExploreConfig::default(),
    );
    let problems = result.expect_err("the missing error branch must be caught");
    assert!(
        problems
            .iter()
            .any(|d| d.context.contains("outcomes differ")),
        "{problems:#?}"
    );
}

// ---------------------------------------------------------------------------
// Runtime failure injection: panicking and non-terminating memory actions.
// ---------------------------------------------------------------------------

/// A well-behaved memory that echoes every action's argument — the
/// reference against which the faulty runs' sibling paths are compared.
#[derive(Clone, Debug, Default)]
struct EchoMem;
impl SymbolicMemory for EchoMem {
    fn execute_action(
        self,
        _: &str,
        arg: &Expr,
        pc: &PathCondition,
        _: &Solver,
    ) -> Vec<SymBranch<Self>> {
        vec![SymBranch::ok(EchoMem, arg.clone(), pc.clone())]
    }
}

/// BROKEN: the `boom` action panics (an `unwrap` deep in a memory model).
#[derive(Clone, Debug, Default)]
struct PanickingMem;
impl SymbolicMemory for PanickingMem {
    fn execute_action(
        self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        _: &Solver,
    ) -> Vec<SymBranch<Self>> {
        if name == "boom" {
            panic!("injected memory fault");
        }
        vec![SymBranch::ok(PanickingMem, arg.clone(), pc.clone())]
    }
}

/// BROKEN: the `spin` action busy-loops. It is *cooperative*: it polls
/// [`Solver::interrupted`] the way a long-running memory model should, so
/// the engine's deadline can reel it back in. (A ten-second failsafe keeps
/// a buggy test from hanging the suite.)
#[derive(Clone, Debug, Default)]
struct SpinMem;
impl SymbolicMemory for SpinMem {
    fn execute_action(
        self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        if name == "spin" {
            let failsafe = Instant::now() + Duration::from_secs(10);
            while !solver.interrupted() && Instant::now() < failsafe {
                std::hint::spin_loop();
            }
        }
        vec![SymBranch::ok(SpinMem, arg.clone(), pc.clone())]
    }
}

/// `x < 0` reaches the faulty action; `x >= 0` returns 0 normally.
fn faulty_branch_program(action: &str) -> Prog {
    Prog::from_procs([Proc::new(
        "main",
        [],
        vec![
            Cmd::isym("x", 0),
            Cmd::IfGoto(Expr::pvar("x").lt(Expr::int(0)), 3),
            Cmd::Return(Expr::int(0)),
            Cmd::action("y", action, Expr::pvar("x")),
            Cmd::Return(Expr::pvar("y")),
        ],
    )])
}

fn fresh<M: SymbolicMemory + Default>() -> SymbolicState<M> {
    SymbolicState::new(Arc::new(Solver::optimized()))
}

/// Sorted `(pc, outcome-tag)` pairs; the tag drops `EngineError` payloads
/// so summaries are comparable across memory types.
fn verdicts<M: SymbolicMemory>(r: &ExploreResult<SymbolicState<M>>) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = r
        .paths
        .iter()
        .map(|p| {
            let tag = match &p.outcome {
                ExploreOutcome::Normal(v) => format!("N({v})"),
                ExploreOutcome::Error(v) => format!("E({v})"),
                ExploreOutcome::Vanished => "vanished".to_string(),
                ExploreOutcome::Truncated => "truncated".to_string(),
                ExploreOutcome::EngineError { .. } => "engine-error".to_string(),
            };
            (p.state.pc.to_string(), tag)
        })
        .collect();
    pairs.sort();
    pairs
}

/// The sibling verdicts of a faulty run: everything that is neither the
/// engine-error report nor deadline-truncated.
fn siblings<M: SymbolicMemory>(r: &ExploreResult<SymbolicState<M>>) -> Vec<(String, String)> {
    verdicts(r)
        .into_iter()
        .filter(|(_, tag)| tag != "engine-error" && tag != "truncated")
        .collect()
}

/// The same run with the fault edited out: the reference verdicts minus
/// the path that reaches the faulty action (whose pc mentions `x < 0`
/// positively and whose outcome echoes `x`).
fn reference_siblings(prog: &Prog, faulty_tag: &str) -> Vec<(String, String)> {
    let reference = explore(prog, "main", fresh::<EchoMem>(), ExploreConfig::default());
    assert!(reference.diagnostics.is_clean());
    assert_eq!(reference.paths.len(), 2);
    verdicts(&reference)
        .into_iter()
        .filter(|(_, tag)| tag != faulty_tag)
        .collect()
}

#[test]
fn injected_panic_is_isolated_serial() {
    let prog = faulty_branch_program("boom");
    let expected = reference_siblings(&prog, "N(#x0)");

    let start = Instant::now();
    let res = explore(
        &prog,
        "main",
        fresh::<PanickingMem>(),
        ExploreConfig::default().with_deadline(Duration::from_secs(2)),
    );
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "must finish under the deadline"
    );

    assert_eq!(res.diagnostics.engine_errors, 1);
    assert_eq!(
        res.diagnostics.deadline_hits, 0,
        "panic, not deadline, ended the path"
    );
    assert_eq!(
        res.engine_errors().count(),
        1,
        "the faulty path is reported as an engine error"
    );
    let reported = res.engine_errors().next().unwrap();
    match &reported.outcome {
        ExploreOutcome::EngineError { payload, .. } => {
            assert!(payload.contains("injected memory fault"), "{payload}");
        }
        other => panic!("expected an engine error, got {other:?}"),
    }
    assert_eq!(
        siblings(&res),
        expected,
        "sibling verdicts must be unaffected"
    );
    assert!(res.bounded());
}

#[test]
fn injected_panic_is_isolated_parallel() {
    let prog = faulty_branch_program("boom");
    let expected = reference_siblings(&prog, "N(#x0)");

    for workers in [2, 4] {
        let start = Instant::now();
        let mut cfg = ExploreConfig::default().with_deadline(Duration::from_secs(2));
        cfg.workers = workers;
        let res = explore_with(&prog, "main", fresh::<PanickingMem>(), cfg);
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(res.diagnostics.engine_errors, 1, "workers={workers}");
        assert_eq!(siblings(&res), expected, "workers={workers}");
    }
}

#[test]
fn injected_spin_loop_is_reeled_in_serial() {
    let prog = faulty_branch_program("spin");
    let expected = reference_siblings(&prog, "N(#x0)");

    let start = Instant::now();
    let res = explore(
        &prog,
        "main",
        fresh::<SpinMem>(),
        ExploreConfig::default().with_deadline(Duration::from_millis(250)),
    );
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "must finish under two seconds"
    );

    assert!(res.truncated, "the deadline must mark the run truncated");
    assert!(res.diagnostics.deadline_hits >= 1, "{:?}", res.diagnostics);
    assert_eq!(res.diagnostics.engine_errors, 0);
    assert_eq!(
        siblings(&res),
        expected,
        "sibling verdicts must be unaffected"
    );
}

#[test]
fn injected_spin_loop_is_reeled_in_parallel() {
    let prog = faulty_branch_program("spin");
    let expected = reference_siblings(&prog, "N(#x0)");

    for workers in [2, 4] {
        let start = Instant::now();
        let mut cfg = ExploreConfig::default().with_deadline(Duration::from_millis(250));
        cfg.workers = workers;
        let res = explore_with(&prog, "main", fresh::<SpinMem>(), cfg);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "workers={workers}"
        );
        assert!(res.truncated, "workers={workers}");
        assert!(
            res.diagnostics.deadline_hits >= 1,
            "workers={workers}: {:?}",
            res.diagnostics
        );
        assert_eq!(siblings(&res), expected, "workers={workers}");
    }
}
