//! Running tests: one execution of one test, its verdict against the
//! known answer, and the measured phase that repeats rounds of a
//! workload.
//!
//! Every execution is single-threaded on a fresh `Solver::optimized()`,
//! as `run_suite` runs the paper's tables. The load is closed-loop: one
//! client starts the next test when the previous verdict is in.

use crate::stats::Counters;
use crate::trace::{Recorder, Span};
use crate::workloads::{Built, Check, Lang, Test};
use gillian_c::{CConcMemory, CSymMemory};
use gillian_core::difftest::{run_differential_with, InterpMemoryCheck};
use gillian_core::explore::{explore_with, ExploreConfig};
use gillian_core::memory::SymbolicMemory;
use gillian_core::symbolic::SymbolicState;
use gillian_core::testing::{replay_concrete, script_from_model, ReplayStatus};
use gillian_gil::{Prog, Value};
use gillian_js::JsSymMemory;
use gillian_solver::{Solver, SolverStats};
use gillian_telemetry::{ExploreTree, Journal};
use gillian_while::{WhileConcMemory, WhileInterpretation, WhileSymMemory};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Per-worker journal capacity of traced executions: large enough that
/// the biggest deep test drops no events.
const JOURNAL_CAPACITY: usize = 1 << 18;

/// What one execution of one test did.
#[derive(Debug, Default)]
pub struct Exec {
    /// Why the verdict differs from the test's known answer, if it does.
    pub failure: Option<String>,
    pub paths: u64,
    pub error_paths: u64,
    pub cmds: u64,
    /// Error paths (or oracle paths) left without a counter-model.
    pub model_failures: u64,
    /// Paths the oracle could not check.
    pub skipped: u64,
    pub solver: SolverStats,
    pub spans: Vec<Span>,
    pub journal_dropped: u64,
}

impl Exec {
    /// The exploration's shape, which every execution of a test repeats.
    fn shape(&self) -> (u64, u64) {
        (self.paths, self.cmds)
    }
}

fn config(test: &Test, journal: Journal) -> ExploreConfig {
    let budget = match test.check {
        // The differential battery's budgets.
        Check::OracleAgrees => ExploreConfig::default(),
        // The Table 1/2 budgets, with room for the churn loops of up to
        // 10^5 iterations on one path.
        _ => ExploreConfig {
            max_cmds_per_path: 1_000_000,
            ..gillian_js::buckets::table1_config()
        },
    };
    ExploreConfig {
        workers: 1,
        journal,
        bytecode: Some(true),
        summaries: Some(false),
        ..budget
    }
}

/// Runs `test` once. A traced execution arms the engine's journal and
/// records spans under request id `req`.
pub fn execute(test: &Test, traced: bool, req: u64) -> Exec {
    let journal = if traced {
        Journal::with_sinks(None, None, JOURNAL_CAPACITY)
    } else {
        Journal::disabled()
    };
    let cfg = config(test, journal.clone());
    let solver = Arc::new(Solver::optimized());
    let mut rec = Recorder::new(req);
    let root = rec.open("test", 0);
    rec.label(root, &test.name);
    let mut exec = match test.check {
        Check::Verifies(Lang::Js) => {
            symbolic::<JsSymMemory>(test, &solver, cfg, &mut rec, root, None)
        }
        Check::Verifies(Lang::C) => {
            symbolic::<CSymMemory>(test, &solver, cfg, &mut rec, root, None)
        }
        Check::Verifies(Lang::While) => {
            symbolic::<WhileSymMemory>(test, &solver, cfg, &mut rec, root, None)
        }
        Check::FindsBug => symbolic::<CSymMemory>(
            test,
            &solver,
            cfg,
            &mut rec,
            root,
            Some(replay_concrete::<CConcMemory>),
        ),
        Check::OracleAgrees => oracle(test, &solver, cfg, &journal, &mut rec, root),
    };
    rec.close(root);
    exec.solver = solver.stats();
    exec.journal_dropped = journal.events_dropped();
    exec.spans = rec.finish();
    exec
}

type Replay = fn(&Prog, &str, Vec<Value>, ExploreConfig) -> ReplayStatus;

/// Explores, then searches a counter-model for every error path (and,
/// for bug-finding tests, replays it concretely), as `run_test` and
/// `run_test_with_replay` do.
fn symbolic<M: SymbolicMemory>(
    test: &Test,
    solver: &Arc<Solver>,
    cfg: ExploreConfig,
    rec: &mut Recorder,
    root: u32,
    replay: Option<Replay>,
) -> Exec {
    let span = rec.open("explore", root);
    let initial = SymbolicState::<M>::new(solver.clone());
    let result = explore_with(&test.prog, &test.entry, initial, cfg.clone());
    rec.close(span);
    if let Some(node) = result.report.profile.as_ref().and_then(|t| t.node(&[])) {
        rec.profile(span, &node.incl);
    }
    let verdict_span = rec.open("verdict", root);
    let mut exec = Exec {
        paths: result.paths.len() as u64,
        error_paths: result.errors().count() as u64,
        cmds: result.total_cmds,
        ..Exec::default()
    };
    let (mut modelled, mut confirmed) = (0u64, 0u64);
    for path in result.errors() {
        let span = rec.open("model", verdict_span);
        let pc = &path.state.pc;
        let model = solver.model(pc).or_else(|| solver.model_for_replay(pc));
        rec.close(span);
        let Some(model) = model else {
            exec.model_failures += 1;
            continue;
        };
        modelled += 1;
        if let Some(replay) = replay {
            let span = rec.open("replay", verdict_span);
            let script = script_from_model(&path.state, &model);
            let status = replay(&test.prog, &test.entry, script, cfg.clone());
            rec.close(span);
            confirmed += u64::from(matches!(status, ReplayStatus::ConfirmedError(_)));
        }
    }
    let engine_errors = result.diagnostics.engine_errors;
    exec.failure = if engine_errors > 0 {
        Some(format!("{engine_errors} engine error(s)"))
    } else if test.check == Check::FindsBug {
        (confirmed == 0).then(|| {
            format!(
                "no replay-confirmed bug among {} error path(s)",
                exec.error_paths
            )
        })
    } else if modelled > 0 {
        Some(format!("{modelled} bug(s) with a counter-model"))
    } else if result.truncated {
        Some("hit an exploration budget".into())
    } else {
        None
    };
    // Freeing the explored states is part of producing the verdict.
    drop(result);
    rec.close(verdict_span);
    exec
}

/// Runs the symbolic-vs-concrete oracle on a cold copy of the program
/// (its bytecode compiles lazily again). The oracle explores internally,
/// so a traced execution recovers the exploration's window and costs
/// from the journal it armed.
fn oracle(
    test: &Test,
    solver: &Arc<Solver>,
    cfg: ExploreConfig,
    journal: &Journal,
    rec: &mut Recorder,
    root: u32,
) -> Exec {
    let span = rec.open("difftest", root);
    let prog = Prog::clone(&test.prog);
    let memcheck = InterpMemoryCheck(WhileInterpretation);
    let report = run_differential_with::<WhileSymMemory, WhileConcMemory, _>(
        &prog,
        &test.entry,
        solver.clone(),
        cfg,
        &memcheck,
    );
    drop(prog);
    rec.close(span);
    if journal.is_enabled() {
        let tree = ExploreTree::from_records(&journal.last_run());
        if let Some(node) = tree.node(&[]).filter(|n| n.first_ts != u64::MAX) {
            let explore = rec.push("explore", span, node.first_ts, node.span_micros(), 1);
            rec.profile(explore, &node.incl);
            let rest = rec.end_of(span).saturating_sub(node.last_ts);
            rec.push("verdict", span, node.last_ts, rest, 1);
        }
    }
    let no_model = report
        .skipped
        .iter()
        .filter(|s| s.reason == "no-model")
        .count();
    Exec {
        failure: report.divergences.first().map(|d| {
            format!(
                "{} divergence(s), first {:?}: {}",
                report.divergences.len(),
                d.class,
                d.detail
            )
        }),
        paths: report.sym_paths as u64,
        cmds: report.sym_cmds,
        model_failures: no_model as u64,
        skipped: report.skipped.len() as u64,
        ..Exec::default()
    }
}

/// Everything measured over the timed rounds of one run.
#[derive(Debug, Default)]
pub struct Phase {
    pub rounds: u64,
    /// Wall time of each timed round.
    pub round_s: Vec<f64>,
    /// Each test's untraced execution times over the timed rounds, in
    /// seconds, in the order of `Built::tests`.
    pub exec_s: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub paths: u64,
    pub error_paths: u64,
    pub cmds: u64,
    pub model_failures: u64,
    pub skipped: u64,
    /// Engine counters over the untraced executions.
    pub counters: Counters,
    pub simplifications: u64,
    pub simplify_hits: u64,
    pub model_searches: u64,
    /// Spans of the traced executions.
    pub spans: Vec<Span>,
    /// Summed latency of the untraced and of the traced executions.
    pub untraced_s: f64,
    pub traced_s: f64,
    pub journal_dropped: u64,
}

impl Phase {
    fn add(&mut self, test: usize, e: &Exec, secs: f64) {
        self.exec_s[test].push(secs);
        self.untraced_s += secs;
        self.paths += e.paths;
        self.error_paths += e.error_paths;
        self.cmds += e.cmds;
        self.model_failures += e.model_failures;
        self.skipped += e.skipped;
        self.simplifications += e.solver.simplifications;
        self.simplify_hits += e.solver.simplify_hits;
        self.model_searches += e.solver.model_searches;
    }
}

/// Checks an execution against its verdict and the warm-up's shape.
fn judge(e: &Exec, shape: (u64, u64)) -> Result<(), String> {
    if let Some(why) = &e.failure {
        return Err(why.clone());
    }
    if e.shape() != shape {
        return Err(format!(
            "explored {:?} (paths, cmds), the warm-up explored {shape:?}",
            e.shape()
        ));
    }
    Ok(())
}

/// Runs an untimed warm-up round, then `rounds` timed rounds (at least
/// one), calling `after_round` with the number of rounds done after each.
/// Every round runs the same tests in the same order, so after the
/// warm-up each round does identical work, and the amount of work never
/// depends on how fast it ran.
///
/// The heap peak restarts at the warm-up, so it counts the built
/// programs and what the engine allocates, not the set-up builds.
///
/// In a traced phase every test runs twice, untraced then traced; the
/// counters come from the untraced executions, the spans from the traced
/// ones, and the ratio of the two latencies is the tracing overhead.
pub fn measure(
    built: &Built,
    rounds: u64,
    traced: bool,
    mut after_round: impl FnMut(u64),
) -> Phase {
    let rounds = rounds.max(1);
    let mut phase = Phase {
        // Sized up front, so they do not grow inside the heap peak.
        exec_s: (0..built.tests.len())
            .map(|_| Vec::with_capacity(rounds as usize))
            .collect(),
        round_s: Vec::with_capacity(rounds as usize),
        ..Phase::default()
    };
    let mut shapes = Vec::with_capacity(built.tests.len());
    crate::heap::restart_peak();
    shapes.extend(built.tests.iter().map(|t| execute(t, false, 0).shape()));
    let mut reported: HashSet<&str> = HashSet::new();
    let mut req = 0;
    for _ in 0..rounds {
        let round_start = Instant::now();
        for (i, (test, &shape)) in built.tests.iter().zip(&shapes).enumerate() {
            let before = Counters::read();
            let t0 = Instant::now();
            let e = execute(test, false, 0);
            let secs = t0.elapsed().as_secs_f64();
            phase.counters.add(&Counters::read().since(&before));
            phase.add(i, &e, secs);
            let mut verdict = judge(&e, shape);
            if traced {
                req += 1;
                let t1 = Instant::now();
                let t = execute(test, true, req);
                phase.traced_s += t1.elapsed().as_secs_f64();
                verdict = verdict.and(judge(&t, shape).map_err(|why| format!("traced: {why}")));
                phase.journal_dropped += t.journal_dropped;
                phase.spans.extend(t.spans);
            }
            phase.attempted += 1;
            if let Err(why) = verdict {
                phase.failed += 1;
                if reported.insert(&test.name) {
                    eprintln!("FAIL {}: {why}", test.name);
                }
            }
        }
        phase.rounds += 1;
        phase.round_s.push(round_start.elapsed().as_secs_f64());
        after_round(phase.rounds);
    }
    phase
}
