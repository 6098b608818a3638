//! Bounded whole-program path exploration.
//!
//! Drives the GIL semantics over a worklist, exploring *all* paths and
//! unrolling loops up to a bound (paper §1: "Gillian symbolically
//! executes these tests, exploring all paths and unrolling loops up to a
//! bound"). The inner loop is the compiled-bytecode block dispatch of
//! [`crate::exec`]; the [`crate::interp`] tree walk is the reference it
//! is tested against ([`crate::interp::all_paths`]), not a run-time
//! choice. Per-path and global command budgets keep exploration total; hitting a budget truncates the path and is
//! reported (a truncated run yields a *bounded* verification guarantee
//! only).
//!
//! The engine is one queue of pending configurations and one worker loop
//! holding the whole per-step policy, run on the calling thread. Paper
//! §3.2's relaxed trace composition makes each explored trace independent
//! of its siblings: a run means the union of its per-trace guarantees, so
//! exploration order decides only the order paths are found in. Every
//! explored path appears exactly once; budget cut-offs surface as
//! [`ExploreOutcome::Truncated`] paths (or [`ExploreResult::dropped_paths`]
//! once `max_paths` is full) — pending work is never silently lost.
//!
//! ## Resilience
//!
//! Command budgets alone cannot defend a run against a diverging solver
//! query, a spinning memory model, or a panicking one. The worker loop
//! therefore also enforces (see `DESIGN.md`, "Resilience model"):
//!
//! - a wall-clock [`ExploreConfig::deadline`] and a cooperative
//!   [`CancelToken`], checked at every scheduling point and installed into
//!   the state's solver (found through [`GilState::solver`]) so that long
//!   satisfiability queries give up with `Unknown` instead of spinning;
//! - per-path panic isolation: each interpreter step runs under a
//!   capturing `catch_unwind` (see `panic_guard`), so a panic in a
//!   language's memory model surfaces as one
//!   [`ExploreOutcome::EngineError`] path while every sibling finishes;
//! - [`ExploreDiagnostics`] on every result, counting deadline hits,
//!   cancellations, engine errors, and `Unknown` sat verdicts — nothing
//!   that weakened the run's guarantee goes unrecorded.

use crate::checkpoint::{
    self, CheckpointConfig, CheckpointData, FrontierItem, PathSummary, ResumeError, StateCtx,
};
use crate::exec::{step_block, BlockProfile, BLOCK_MAX};
use crate::faults::{FaultKind, FaultPlan};
use crate::interp::{Config, Final, Outcome, StepOut};
use crate::panic_guard;
use crate::state::GilState;
use gillian_gil::compile::CompiledProg;
use gillian_gil::{EvalScratch, InternStats, Prog};
use gillian_solver::{CancelToken, Interrupt, Solver};
use gillian_telemetry::journal::{clear_path_context, set_path_context};
use gillian_telemetry::{
    names, registry, Event, Journal, LiveSink, LiveStats, Report, TreeStats, WorkerLog,
};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The order in which pending configurations are explored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Depth-first (the default): completes individual paths early, which
    /// suits bug finding and keeps the frontier small.
    #[default]
    Dfs,
    /// Breadth-first: explores all paths in lockstep, which suits
    /// shallow-bug sweeps and fair progress across branches.
    Bfs,
}

/// Exploration limits.
///
/// No longer `Copy` (the cancellation token is shared); clone it freely —
/// clones share the same token, which is what callers want: cancelling a
/// run cancels everything configured from the same `ExploreConfig`.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum commands executed along a single path.
    pub max_cmds_per_path: u64,
    /// Maximum commands executed across all paths.
    pub max_total_cmds: u64,
    /// Maximum number of finished paths collected. Never exceeded: once
    /// full, further paths (finished or pending) are counted in
    /// [`ExploreResult::dropped_paths`].
    pub max_paths: usize,
    /// Exploration order: the end of the queue the loop pops. The result
    /// lists paths in this order.
    pub strategy: SearchStrategy,
    /// Maximum pending (in-flight) configurations; branches beyond the cap
    /// are *dropped*. Paper §3.2's relaxed trace composition licenses
    /// this: soundness is per-trace, so dropping paths loses coverage but
    /// never validity — a standard scalability lever. Dropped paths are
    /// counted in [`ExploreResult::dropped_paths`] and mark the result
    /// truncated.
    pub max_pending: Option<usize>,
    /// Retired: exploration always runs one worker loop on the calling
    /// thread and nothing reads this field. It remains only because the
    /// benchmark's runner names it in a struct literal, and goes with the
    /// next change to the benchmark.
    pub workers: usize,
    /// Wall-clock budget for one exploration run, measured from the call.
    /// When it expires, pending paths are parked as
    /// [`ExploreOutcome::Truncated`] (counted in
    /// [`ExploreDiagnostics::deadline_hits`]) and in-flight solver queries
    /// answer `Unknown`. `None` (the default) means no time limit.
    ///
    /// The deadline is cooperative: it is checked between interpreter
    /// steps and inside solver queries, so a single step overshoots only
    /// by as long as it genuinely computes. Memory models with long
    /// actions should poll `Solver::interrupted` to stay within it.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation. Cancel the token (from any thread) to
    /// stop the run at its next scheduling point; remaining work is parked
    /// as truncated and counted in [`ExploreDiagnostics::cancellations`].
    /// The default is a fresh, never-cancelled token.
    pub cancel: CancelToken,
    /// The run's event journal. The default is [`Journal::disabled`],
    /// which costs nothing. An enabled journal (e.g. [`Journal::enabled`]
    /// or [`Journal::with_sinks`]) records path lifecycle, sat queries
    /// and memory actions, and appends the merged trace to its sinks at
    /// run end. Cloning a configuration shares its journal.
    pub journal: Journal,
    /// Crash-safe checkpointing of the frontier (`DESIGN.md` §14):
    /// `None` (the default) writes nothing; otherwise the configured
    /// file receives atomic snapshots at the configured interval and on
    /// deadline/cancel/kill, from which [`explore_resume`] can continue
    /// the run.
    pub checkpoint: Option<CheckpointConfig>,
    /// Deterministic fault injection (`DESIGN.md` §14): `None` (the
    /// default) injects nothing; otherwise the plan's seeded decisions
    /// fire at engine scheduling points and solver queries. Testing
    /// machinery — never install one in production runs.
    pub faults: Option<Arc<FaultPlan>>,
    /// Retired: the compiled bytecode is the only execution backend
    /// (`DESIGN.md` §15) and nothing reads this field. It remains only
    /// because the benchmark's runner names it in a struct literal, and
    /// goes with the next change to the benchmark.
    pub bytecode: Option<bool>,
    /// Retired: procedure summaries were removed (`DESIGN.md` §17) and
    /// nothing reads this field. It remains only because the benchmark's
    /// runner names it in a struct literal, and goes with the next change
    /// to the benchmark.
    pub summaries: Option<bool>,
    /// Live mode (`DESIGN.md` §16): `Some((path, every_ms))` opens a
    /// [`LiveSink`] on `path` for the run and appends a progress frame
    /// about every `every_ms` milliseconds, plus a final one. `None` (the
    /// default) writes nothing and starts no sampler thread.
    pub live: Option<(String, u64)>,
}

impl ExploreConfig {
    /// This configuration with the given wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_cmds_per_path: 100_000,
            max_total_cmds: 10_000_000,
            max_paths: 4096,
            strategy: SearchStrategy::Dfs,
            max_pending: None,
            workers: 1,
            deadline: None,
            cancel: CancelToken::new(),
            journal: Journal::disabled(),
            checkpoint: None,
            faults: None,
            bytecode: None,
            summaries: None,
            live: None,
        }
    }
}

/// The outcome of one explored path.
#[derive(Clone, Debug, PartialEq)]
pub enum ExploreOutcome<V> {
    /// Terminated with `N(v)`.
    Normal(V),
    /// Terminated with `E(v)`.
    Error(V),
    /// Discarded by `vanish` (e.g. a failed `assume`).
    Vanished,
    /// Cut off by a budget — the path may have continued.
    Truncated,
    /// The engine (or a memory model it called) panicked while stepping
    /// this path. The panic was isolated: sibling paths are unaffected and
    /// carry their usual per-trace guarantee; *this* trace carries none.
    EngineError {
        /// The captured panic message, with source location when the
        /// panic hook could observe it.
        payload: String,
        /// The branch trace (successor index at every branching step from
        /// the entry) identifying which path died. The associated
        /// [`PathResult::state`] is a pristine clone of the *initial*
        /// state — the true final state was lost to the unwind.
        trace: Vec<u32>,
    },
}

impl<V> ExploreOutcome<V> {
    /// The journal/JSONL spelling of this outcome kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ExploreOutcome::Normal(_) => "normal",
            ExploreOutcome::Error(_) => "error",
            ExploreOutcome::Vanished => "vanished",
            ExploreOutcome::Truncated => "truncated",
            ExploreOutcome::EngineError { .. } => "engine_error",
        }
    }
}

impl<V> From<Outcome<V>> for ExploreOutcome<V> {
    fn from(o: Outcome<V>) -> Self {
        match o {
            Outcome::Normal(v) => ExploreOutcome::Normal(v),
            Outcome::Error(v) => ExploreOutcome::Error(v),
            Outcome::Vanished => ExploreOutcome::Vanished,
        }
    }
}

/// One finished (or truncated) path.
#[derive(Clone, Debug)]
pub struct PathResult<S: GilState> {
    /// The state at the end of the path.
    pub state: S,
    /// How the path ended.
    pub outcome: ExploreOutcome<S::V>,
    /// Commands executed along this path.
    pub cmds: u64,
    /// The branch trace: the successor index chosen at every branching
    /// step from the entry (the journal's schedule-independent path id).
    /// Feed it to [`replay_path`] to re-execute exactly this path.
    pub trace: Vec<u32>,
}

/// Counters for everything that weakened a run's guarantee beyond plain
/// command budgets. A clean run (all zeros) explored exactly what its
/// budgets allowed; any non-zero counter means some verdicts are bounded
/// or missing for the recorded reason.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreDiagnostics {
    /// Paths parked as truncated because the wall-clock deadline fired.
    pub deadline_hits: usize,
    /// Paths parked as truncated because the run was cancelled.
    pub cancellations: usize,
    /// Paths lost to an isolated panic.
    pub engine_errors: usize,
    /// `Unknown` satisfiability verdicts observed during the run. Each one
    /// means a branch was kept because the solver could not *prove* it
    /// infeasible within budget — sound (over-approximating) but worth
    /// recording: bug reports remain true positives (models are verified),
    /// while "no bug found" weakens from the budget-bounded guarantee to
    /// one also conditioned on those undecided queries.
    pub unknown_verdicts: u64,
    /// Satisfiability queries answered by extending a frozen per-prefix
    /// solve context instead of re-solving the full conjunction.
    /// Telemetry only, so this does not affect
    /// [`ExploreDiagnostics::is_clean`].
    pub incremental_hits: u64,
    /// Interner activity attributed to this run: the **thread-local**
    /// [`InternStats`] delta of the calling thread, with `live` read
    /// globally at run end. Diffing the process-global counters instead
    /// would fold in every other exploration running concurrently in the
    /// process. Telemetry only: these counters do not affect
    /// [`ExploreDiagnostics::is_clean`].
    pub interner: InternStats,
}

impl ExploreDiagnostics {
    /// True when nothing degraded the run: no deadline hits, no
    /// cancellations, no engine errors, no unknown verdicts. Interner
    /// telemetry is informational and deliberately excluded.
    pub fn is_clean(&self) -> bool {
        self.deadline_hits == 0
            && self.cancellations == 0
            && self.engine_errors == 0
            && self.unknown_verdicts == 0
    }
}

/// The result of exploring a program from an entry point.
#[derive(Clone, Debug)]
pub struct ExploreResult<S: GilState> {
    /// All finished paths in exploration order, then the pending work a
    /// stop left behind, in pop order.
    pub paths: Vec<PathResult<S>>,
    /// Total GIL commands executed (the paper's "GIL Cmds" column).
    pub total_cmds: u64,
    /// True when some budget was hit.
    pub truncated: bool,
    /// Paths lost to a cap: branches beyond [`ExploreConfig::max_pending`],
    /// plus any path (finished or pending) arriving after
    /// [`ExploreConfig::max_paths`] results were already collected.
    pub dropped_paths: usize,
    /// True when a fault-injected kill stopped the run as if the process
    /// died. A killed result is incomplete by construction: its pending
    /// frontier lives only in the checkpoint file (when one was
    /// configured) and is *not* drained into truncated paths here —
    /// exactly what a real crash leaves behind. Resume with
    /// [`explore_resume`].
    pub killed: bool,
    /// What, if anything, degraded this run (deadlines, cancellation,
    /// isolated panics, undecided solver queries).
    pub diagnostics: ExploreDiagnostics,
    /// The run's exploration profile: metric deltas, branch-tree shape,
    /// and — when the journal was enabled — slowest sat queries and the
    /// per-language action table. Render with [`Report::render`];
    /// library code never prints it.
    pub report: Report,
}

impl<S: GilState> ExploreResult<S> {
    /// Paths that ended in an error.
    pub fn errors(&self) -> impl Iterator<Item = &PathResult<S>> {
        self.paths
            .iter()
            .filter(|p| matches!(p.outcome, ExploreOutcome::Error(_)))
    }

    /// Paths that returned normally.
    pub fn normal(&self) -> impl Iterator<Item = &PathResult<S>> {
        self.paths
            .iter()
            .filter(|p| matches!(p.outcome, ExploreOutcome::Normal(_)))
    }

    /// Paths that died to an isolated panic.
    pub fn engine_errors(&self) -> impl Iterator<Item = &PathResult<S>> {
        self.paths
            .iter()
            .filter(|p| matches!(p.outcome, ExploreOutcome::EngineError { .. }))
    }

    /// True when this result carries a *bounded* guarantee only: some
    /// budget truncated exploration, paths were dropped, or the
    /// diagnostics record a degradation (including `Unknown` verdicts,
    /// which truncate nothing but leave branches unproven-infeasible).
    pub fn bounded(&self) -> bool {
        self.truncated || self.dropped_paths > 0 || self.killed || !self.diagnostics.is_clean()
    }
}

/// Why the worker loop stopped before its queue drained, or paused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stop {
    /// `max_total_cmds` or `max_paths` is spent. Like any budget, it
    /// truncates the result but records no diagnostic.
    Budget,
    /// The wall-clock deadline passed.
    Deadline,
    /// The run's cancel token fired.
    Cancelled,
    /// A periodic checkpoint is due: the loop parks its job, snapshots
    /// the frontier and carries on. The only stop that does not end the
    /// run.
    Checkpoint,
    /// A fault-injected simulated process death.
    Killed,
}

/// The run's progress: what the live sampler reads, from a thread of its
/// own, while the loop runs. It holds no exploration states, so it is
/// shareable whatever the state type.
#[derive(Default)]
struct Counters {
    /// Commands spent against `max_total_cmds`.
    total_cmds: AtomicU64,
    /// Paths finished so far, recorded or dropped past `max_paths`.
    finished_paths: AtomicUsize,
    /// Queue length and the branch depth last stepped.
    pending: AtomicUsize,
    depth: AtomicU32,
}

impl Counters {
    fn live_stats(&self) -> LiveStats {
        LiveStats {
            paths_finished: self.finished_paths.load(Ordering::Relaxed) as u64,
            pending: self.pending.load(Ordering::Relaxed) as u64,
            depth: self.depth.load(Ordering::Relaxed),
            cmds: self.total_cmds.load(Ordering::Relaxed),
        }
    }
}

/// The run's solver, its counters at run start (unknown verdicts and
/// incremental hits) and the resumed-from diagnostics: what turns a
/// run's engine counters into its [`ExploreDiagnostics`], mid-run for a
/// checkpoint or at the end.
struct Baseline<'s> {
    solver: Option<&'s Solver>,
    start: [u64; 2],
    resumed: ExploreDiagnostics,
}

impl Baseline<'_> {
    /// A solver-free (concrete) run counts nothing.
    fn counters(solver: Option<&Solver>) -> [u64; 2] {
        solver.map_or([0; 2], |s| {
            let stats = s.stats();
            [stats.sat_unknowns, stats.incremental_hits]
        })
    }

    fn diagnostics(&self, run: ExploreDiagnostics) -> ExploreDiagnostics {
        let now = Baseline::counters(self.solver);
        let delta = |i: usize| now[i].saturating_sub(self.start[i]);
        let base = &self.resumed;
        ExploreDiagnostics {
            deadline_hits: run.deadline_hits + base.deadline_hits,
            cancellations: run.cancellations + base.cancellations,
            engine_errors: run.engine_errors + base.engine_errors,
            unknown_verdicts: delta(0) + base.unknown_verdicts,
            incremental_hits: delta(1) + base.incremental_hits,
            interner: run.interner,
        }
    }
}

/// One run: the pending frontier, the paths recorded so far and the
/// run's accounting, which its periodic checkpoints snapshot and carry
/// over unchanged.
struct Explorer<'a, S: GilState> {
    compiled: &'a CompiledProg,
    cfg: &'a ExploreConfig,
    entry: &'a str,
    interrupt: Interrupt,
    baseline: Baseline<'a>,
    counters: &'a Counters,
    log: WorkerLog,
    /// The pending frontier: DFS pops from the back, BFS from the front.
    queue: VecDeque<FrontierItem<S>>,
    finished: Vec<PathResult<S>>,
    truncated: bool,
    dropped_paths: usize,
    /// Paths lost to isolated panics.
    engine_errors: usize,
    /// When the next periodic checkpoint is due.
    checkpoint_at: Option<Instant>,
}

impl<S: GilState> Explorer<'_, S> {
    fn drop_path(&mut self) {
        self.dropped_paths += 1;
        self.truncated = true;
    }

    /// The run's diagnostics so far, as a checkpoint records them (stops
    /// are counted at the drain).
    fn diagnostics(&self) -> ExploreDiagnostics {
        self.baseline.diagnostics(ExploreDiagnostics {
            engine_errors: self.engine_errors,
            ..ExploreDiagnostics::default()
        })
    }

    fn publish_pending(&self) {
        self.counters
            .pending
            .store(self.queue.len(), Ordering::Relaxed);
    }

    /// `job`, unless the `max_pending` cap leaves the queue no room for
    /// it, in which case it is dropped.
    fn admit(&mut self, job: FrontierItem<S>) -> Option<FrontierItem<S>> {
        if self
            .cfg
            .max_pending
            .is_some_and(|cap| self.queue.len() >= cap)
        {
            self.drop_path();
            return None;
        }
        Some(job)
    }

    /// Queues `earlier` in order, then `last`, each through the
    /// `max_pending` cap. Under DFS, `last` is not queued but returned,
    /// to continue at once: it is the job the queue would hand back next.
    fn enqueue(
        &mut self,
        earlier: Vec<FrontierItem<S>>,
        last: Option<FrontierItem<S>>,
    ) -> Option<FrontierItem<S>> {
        let last = last?;
        let keep = self.cfg.strategy == SearchStrategy::Dfs;
        if keep && earlier.is_empty() && self.cfg.max_pending.is_none() {
            return Some(last);
        }
        for job in earlier {
            if let Some(job) = self.admit(job) {
                self.queue.push_back(job);
            }
        }
        let mut next = self.admit(last);
        if !keep {
            self.queue.extend(next.take());
        }
        self.publish_pending();
        next
    }

    /// The next job in strategy order: DFS from the back, BFS from the
    /// front.
    fn pop(&mut self) -> Option<FrontierItem<S>> {
        let job = match self.cfg.strategy {
            SearchStrategy::Dfs => self.queue.pop_back(),
            SearchStrategy::Bfs => self.queue.pop_front(),
        };
        self.publish_pending();
        job
    }

    /// Puts `job` back at the end it was popped from, so the queue is the
    /// whole frontier again.
    fn park(&mut self, job: FrontierItem<S>) {
        match self.cfg.strategy {
            SearchStrategy::Dfs => self.queue.push_back(job),
            SearchStrategy::Bfs => self.queue.push_front(job),
        }
        self.publish_pending();
    }

    /// Writes one atomic checkpoint: the queue is the whole frontier and
    /// `finished` every path completed so far. Failures are counted
    /// (`checkpoint.failed_writes`) but never stop exploration —
    /// checkpointing is best-effort durability, not a correctness
    /// dependency. Returns whether the write succeeded.
    fn write_checkpoint(&mut self, ckpt: &CheckpointConfig) -> bool {
        let started = Instant::now();
        let completed = self.finished.iter().map(|p| PathSummary {
            trace: p.trace.clone(),
            outcome: p.outcome.kind().to_string(),
            cmds: p.cmds,
        });
        let data = CheckpointData {
            strategy: self.cfg.strategy,
            entry: self.entry.to_string(),
            total_cmds: self.counters.total_cmds.load(Ordering::Relaxed),
            truncated: self.truncated,
            dropped_paths: self.dropped_paths,
            diagnostics: self.diagnostics(),
            completed: completed.collect(),
            frontier: self.queue.iter().cloned().collect(),
        };
        let Ok(bytes) = checkpoint::save_checkpoint(&ckpt.path, &data) else {
            registry().counter(names::CHECKPOINT_FAILED_WRITES).incr();
            return false;
        };
        let (micros, metrics) = (started.elapsed().as_micros() as u64, registry());
        metrics.counter(names::CHECKPOINT_WRITES).incr();
        metrics.counter(names::CHECKPOINT_BYTES).add(bytes);
        metrics
            .histogram(names::CHECKPOINT_WRITE_MICROS)
            .record(micros);
        let (pending, completed) = (data.frontier.len() as u32, data.completed.len() as u32);
        self.log.emit_with(|| Event::CheckpointWritten {
            pending,
            completed,
            bytes,
            micros,
        });
        true
    }

    /// The checks made before every step, in order: the budgets,
    /// cancellation, the deadline (journaled against the path about to
    /// step), a due checkpoint, then one fault point. `steps` counts the
    /// steps since the run started or last checkpointed. `Ok` says
    /// whether to inject a panic into the step.
    fn before_step(&mut self, job: &FrontierItem<S>, steps: u64) -> Result<bool, Stop> {
        let (cfg, c) = (self.cfg, self.counters);
        if c.total_cmds.load(Ordering::Relaxed) >= cfg.max_total_cmds
            || c.finished_paths.load(Ordering::Relaxed) >= cfg.max_paths
        {
            return Err(Stop::Budget);
        }
        if cfg.cancel.is_cancelled() {
            return Err(Stop::Cancelled);
        }
        if self.interrupt.deadline_expired() {
            self.log.emit_with(|| Event::DeadlineHit {
                path: job.trace.clone(),
            });
            return Err(Stop::Deadline);
        }
        // A checkpoint waits for one step since the last, so even a
        // zero-length interval makes progress between checkpoints.
        if steps > 0 && self.checkpoint_at.is_some_and(|at| Instant::now() >= at) {
            return Err(Stop::Checkpoint);
        }
        // A kill parks the job *before* it steps, so the checkpointed
        // frontier is exactly what was pending; an injected panic fires
        // inside the step's panic guard, as a memory-model panic would.
        let Some(plan) = &cfg.faults else {
            return Ok(false);
        };
        let point = plan.next_point();
        let Some(fault) = plan.engine_fault(point) else {
            return Ok(false);
        };
        plan.record(point, fault);
        let name = fault.name();
        self.log
            .emit_with(|| Event::FaultInjected { point, fault: name });
        match fault {
            FaultKind::Kill => Err(Stop::Killed),
            _ => Ok(true),
        }
    }

    /// Records a finished path, or drops it once `max_paths` paths have
    /// finished; `PathFinished` is journaled for exactly the recorded
    /// paths.
    fn finish(&mut self, state: S, outcome: ExploreOutcome<S::V>, cmds: u64, trace: Vec<u32>) {
        let c = self.counters;
        if c.finished_paths.fetch_add(1, Ordering::Relaxed) >= self.cfg.max_paths {
            return self.drop_path();
        }
        self.log.emit_with(|| Event::PathFinished {
            path: trace.clone(),
            outcome: outcome.kind(),
            cmds,
        });
        let path = PathResult {
            state,
            outcome,
            cmds,
            trace,
        };
        self.finished.push(path);
    }

    /// The worker loop: the run's per-step policy, written once. Each
    /// step pops a job by strategy (or continues the last one), runs
    /// [`Explorer::before_step`], applies the per-path cap, steps one
    /// block within the command budgets under the panic guard, and
    /// journals the fork or finish. Returns the stop that ended the run,
    /// or `None` once the queue is empty.
    fn run(&mut self, sentinel: &S) -> Option<Stop> {
        let (cfg, c) = (self.cfg, self.counters);
        let mut scratch = EvalScratch::new();
        let progress = AtomicU64::new(0);
        // The dispatcher's per-proc time attribution, journal-armed runs only.
        let mut profile = cfg.journal.is_enabled().then(BlockProfile::new);
        let (mut steps, mut next, mut stop) = (0u64, None, None);
        while let Some(job) = next.take().or_else(|| self.pop()) {
            let inject_panic = match self.before_step(&job, steps) {
                Ok(inject) => inject,
                Err(Stop::Checkpoint) => {
                    // The job goes back first so that the snapshot is the
                    // whole frontier; the next pop hands it back.
                    self.park(job);
                    if let Some(ckpt) = &cfg.checkpoint {
                        self.write_checkpoint(ckpt);
                        self.checkpoint_at = ckpt.every.map(|e| Instant::now() + e);
                    }
                    steps = 0;
                    continue;
                }
                Err(end) => {
                    self.park(job);
                    stop = Some(end);
                    break;
                }
            };
            if job.cmds >= cfg.max_cmds_per_path {
                self.truncated = true;
                self.finish(
                    job.config.state,
                    ExploreOutcome::Truncated,
                    job.cmds,
                    job.trace,
                );
                continue;
            }
            // One block within the path's and the run's remaining
            // allowance, so the block loop never consults budgets.
            // `before_step` left at least one command of each.
            let spent = c.total_cmds.load(Ordering::Relaxed);
            let allowed = BLOCK_MAX
                .min(cfg.max_cmds_per_path - job.cmds)
                .min(cfg.max_total_cmds - spent);
            steps += 1;
            let FrontierItem {
                config,
                cmds,
                mut trace,
            } = job;
            progress.store(0, Ordering::Relaxed);
            c.depth.store(trace.len() as u32, Ordering::Relaxed);
            // Attribute the solver/memory events this step emits to its path
            // (thread-local; cleared when the loop ends).
            if profile.is_some() {
                set_path_context(&trace);
            }
            let caught = {
                let (scratch, progress, prof) = (&mut scratch, &progress, profile.as_mut());
                let (compiled, interrupt) = (self.compiled, &self.interrupt);
                panic_guard::catch(move || {
                    if inject_panic {
                        panic!("injected fault: path panic");
                    }
                    step_block(
                        compiled, config, allowed, interrupt, progress, scratch, prof,
                    )
                })
            };
            // Commands the block charged — published *before* each command
            // runs, so a panic mid-block still bills every command up to and
            // including the one that died (`max(1)` covers an injected panic
            // ahead of the first command, which the reference charges as one).
            let charged = progress.load(Ordering::Relaxed);
            let consumed = charged.max(1);
            let cmds = cmds + consumed;
            c.total_cmds.store(spent + consumed, Ordering::Relaxed);
            for (stack, seg_cmds, micros) in profile.iter_mut().flat_map(|p| p.drain(charged)) {
                self.log.emit_with(|| Event::ProcTime {
                    path: trace.clone(),
                    stack,
                    cmds: seg_cmds,
                    micros,
                });
            }
            let outs = match caught {
                Ok(outs) => outs,
                Err(payload) => {
                    self.engine_errors += 1;
                    self.truncated = true;
                    self.log.emit_with(|| Event::PanicIsolated {
                        path: trace.clone(),
                        payload: payload.clone(),
                    });
                    // The sentinel clone itself may panic (a poisoned user
                    // Clone impl); then the path is counted but has no state
                    // to report.
                    if let Ok(state) = panic_guard::catch(|| sentinel.clone()) {
                        let trace_copy = trace.clone();
                        let outcome = ExploreOutcome::EngineError { payload, trace };
                        self.finish(state, outcome, cmds, trace_copy);
                    }
                    continue;
                }
            };
            let branching = outs.len() > 1;
            if branching {
                self.log.emit_with(|| Event::PathForked {
                    parent: trace.clone(),
                    arms: outs.len() as u32,
                });
            }
            // Successors in order: every configuration but the latest waits in
            // `earlier`, which allocates only when a step forks.
            let (mut earlier, mut last) = (Vec::new(), None);
            for (i, out) in outs.into_iter().enumerate() {
                let trace = if branching {
                    [trace.as_slice(), &[i as u32]].concat()
                } else {
                    std::mem::take(&mut trace)
                };
                match out {
                    StepOut::Next(config) => {
                        let child = FrontierItem {
                            config,
                            cmds,
                            trace,
                        };
                        earlier.extend(last.replace(child));
                    }
                    StepOut::Done(Final { state, outcome }) => {
                        self.finish(state, outcome.into(), cmds, trace);
                    }
                }
            }
            next = self.enqueue(earlier, last);
        }
        if profile.is_some() {
            clear_path_context();
        }
        stop
    }
}

/// Runs `run` with the live sampler beside it when
/// [`ExploreConfig::live`] opened a sink: a thread that polls the run's
/// counters at the frame interval and stops as soon as `run` returns.
/// Unarmed, `run` runs alone and no thread is spawned.
fn with_live_sampler<T>(
    live: Option<&mut LiveSink>,
    counters: &Counters,
    run: impl FnOnce() -> T,
) -> T {
    let Some(live) = live else {
        return run();
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let nap = live.every().min(Duration::from_millis(50));
            loop {
                live.tick(&counters.live_stats());
                if done.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::park_timeout(nap);
            }
        });
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
        done.store(true, Ordering::Relaxed);
        sampler.thread().unpark();
        out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// The run driver: arms the run on the sentinel's solver, runs the worker
/// loop on the calling thread until the queue drains or a stop ends the
/// run, writes the final checkpoint, drains, and disarms. A run starts
/// from a checkpoint's frontier and accounting: a fresh run from the
/// trivial one [`seed`] builds, a resumed run from the file, so its
/// result reads like the tail of one uninterrupted run.
///
/// A periodic checkpoint pauses the loop: the job in hand goes back to
/// the queue, the loop snapshots the queue and the recorded paths, and
/// carries on from exactly that frontier with the same counters — a
/// paused run's result is indistinguishable from an uninterrupted one's.
fn drive<S: GilState>(
    prog: &Prog,
    sentinel: S,
    start: CheckpointData<S>,
    cfg: ExploreConfig,
) -> ExploreResult<S> {
    let run_started = Instant::now();
    // One compiled program for the whole run; procedures compile on first
    // call.
    let compiled = prog.bytecode();
    let interrupt = Interrupt::new(cfg.deadline.map(|d| run_started + d), cfg.cancel.clone());
    // Arm the run's interrupt, journal and fault probe on the solver every
    // state of the run shares; all three are disarmed at the end.
    let solver = sentinel.solver();
    if let Some(solver) = solver {
        solver.set_interrupt(interrupt.clone());
        solver.set_journal(cfg.journal.clone());
        if let Some(plan) = &cfg.faults {
            solver.set_fault_probe(plan.probe(cfg.journal.clone()));
        }
    }
    // The run's interner traffic: the calling thread's delta is the whole
    // run's, and excludes other explorations running in the process.
    let interner_before = InternStats::thread_snapshot();
    let metrics_before = registry().snapshot();
    let mut log = cfg.journal.worker(0);
    log.emit_with(|| Event::PathStarted { path: Vec::new() });
    let counters = Counters {
        total_cmds: start.total_cmds.into(),
        ..Counters::default()
    };
    let mut run = Explorer {
        compiled: &compiled,
        cfg: &cfg,
        entry: &start.entry,
        interrupt,
        baseline: Baseline {
            solver,
            start: Baseline::counters(solver),
            resumed: start.diagnostics,
        },
        counters: &counters,
        log,
        queue: start.frontier.into(),
        finished: Vec::new(),
        truncated: start.truncated,
        dropped_paths: start.dropped_paths,
        engine_errors: 0,
        checkpoint_at: cfg
            .checkpoint
            .as_ref()
            .and_then(|c| c.every)
            .map(|e| run_started + e),
    };
    let mut live = match &cfg.live {
        Some((path, every_ms)) => LiveSink::to_path(path, *every_ms),
        None => None,
    };
    let stop = with_live_sampler(live.as_mut(), &counters, || run.run(&sentinel));

    // Final checkpoint: always on a kill (that *is* the crash being
    // simulated), and on deadline/cancel when configured — written before
    // pending work is drained, so the file holds the true frontier.
    let killed = stop == Some(Stop::Killed);
    let wanted = cfg.checkpoint.as_ref().filter(|ckpt| match stop {
        Some(Stop::Killed) => true,
        Some(Stop::Deadline) => ckpt.on_deadline,
        Some(Stop::Cancelled) => ckpt.on_cancel,
        _ => false,
    });
    let checkpointed = wanted.is_some_and(|ckpt| run.write_checkpoint(ckpt));
    let mut pending: Vec<_> = run.queue.drain(..).collect();
    if killed && checkpointed {
        // A killed run mimics process death: its pending work survives
        // only in the checkpoint, so it is *not* drained into truncated
        // paths here (resume-equivalence depends on it appearing exactly
        // once — in the resumed run).
        pending.clear();
    }
    // The recorded paths, in exploration order, then the pending work a
    // stop left behind, in pop order, finished as truncated.
    let mut diagnostics = ExploreDiagnostics {
        engine_errors: run.engine_errors,
        ..ExploreDiagnostics::default()
    };
    match stop {
        Some(Stop::Deadline) => diagnostics.deadline_hits = pending.len(),
        Some(Stop::Cancelled) => diagnostics.cancellations = pending.len(),
        _ => {}
    }
    if cfg.strategy == SearchStrategy::Dfs {
        pending.reverse();
    }
    for job in pending {
        run.truncated = true;
        run.finish(
            job.config.state,
            ExploreOutcome::Truncated,
            job.cmds,
            job.trace,
        );
    }
    let Explorer {
        finished: paths,
        truncated,
        dropped_paths,
        baseline,
        log,
        ..
    } = run;
    if let Some(l) = live.as_mut() {
        l.finish(&LiveStats {
            paths_finished: paths.len() as u64,
            pending: 0,
            ..counters.live_stats()
        });
    }
    diagnostics.interner = InternStats::thread_snapshot().since(&interner_before);
    let mut result = ExploreResult {
        paths,
        total_cmds: counters.total_cmds.load(Ordering::Relaxed),
        truncated,
        dropped_paths,
        killed,
        diagnostics: baseline.diagnostics(diagnostics),
        report: Report::default(),
    };
    if let Some(solver) = solver {
        solver.clear_interrupt();
        if cfg.faults.is_some() {
            solver.clear_fault_probe();
        }
        solver.clear_journal();
    }
    drop(log);
    let report = &mut result.report;
    if cfg.journal.is_enabled() {
        let merged = cfg.journal.finish_run();
        report.ingest_events(&merged, cfg.journal.events_dropped());
        report.trace_path = cfg.journal.jsonl_path().map(String::from);
    }
    report.wall_micros = run_started.elapsed().as_micros() as u64;
    report.tree = TreeStats::from_paths(result.paths.iter().map(|p| p.trace.as_slice()));
    report.metrics = registry().snapshot().since(&metrics_before);
    result
}

/// A fresh run from `entry`: the trivial checkpoint, whose frontier is
/// the entry configuration, plus a pristine clone of the initial state as
/// the run's sentinel. The sentinel's solver is where the driver arms and
/// disarms the run and reads its solver counters; the sentinel also
/// stands in as the reported state of paths whose true state was lost to
/// a panic. It is never stepped.
fn seed<S: GilState>(entry: &str, initial: S, cfg: &ExploreConfig) -> (S, CheckpointData<S>) {
    let sentinel = initial.clone();
    let start = CheckpointData {
        strategy: cfg.strategy,
        entry: entry.to_string(),
        total_cmds: 0,
        truncated: false,
        dropped_paths: 0,
        diagnostics: ExploreDiagnostics::default(),
        completed: Vec::new(),
        frontier: vec![FrontierItem {
            config: Config::entry(entry, initial),
            cmds: 0,
            trace: Vec::new(),
        }],
    };
    (sentinel, start)
}

/// A resumed exploration: the paths completed before the interruption
/// (from the checkpoint) plus the result of exploring the restored
/// frontier. `prior` and `result.paths` are disjoint by construction
/// (a path is either finished before the checkpoint or pending in it),
/// and for a kill-interrupted run their union is exactly the
/// uninterrupted run's path set, with the same branch-trace identities.
#[derive(Clone, Debug)]
pub struct ResumedExplore<S: GilState> {
    /// Paths completed before the checkpoint was written.
    pub prior: Vec<PathSummary>,
    /// The continuation run. Budgets continue from the checkpoint's
    /// accounting and [`ExploreDiagnostics`] are merged, so this reads
    /// like the tail of one uninterrupted run.
    pub result: ExploreResult<S>,
}

/// Resumes an interrupted exploration from the checkpoint at `path`.
///
/// The frontier is restored through `ctx` (intern ids remapped by
/// re-interning; states re-attached to `ctx.solver`), the checkpoint's
/// search strategy overrides `cfg.strategy`, and exploration continues
/// under `cfg`'s budgets with the checkpoint's command count already
/// spent. `sentinel` plays the role the initial state plays in
/// [`explore`]: its solver is where the run is armed and disarmed, and it
/// is the reported state of panicked paths. It is never stepped.
///
/// # Errors
///
/// Reports [`ResumeError`] when the file is missing, corrupt, from a
/// different format version, or holds states `S` cannot rebuild. Never
/// panics on untrusted bytes.
pub fn explore_resume<S: GilState>(
    prog: &Prog,
    path: &Path,
    ctx: &StateCtx,
    sentinel: S,
    mut cfg: ExploreConfig,
) -> Result<ResumedExplore<S>, ResumeError> {
    let mut data: CheckpointData<S> = checkpoint::load_checkpoint(path, ctx)?;
    cfg.strategy = data.strategy;
    registry().counter(names::CHECKPOINT_RESUMES).incr();
    cfg.journal.record_shared(Event::Resumed {
        pending: data.frontier.len() as u32,
        completed: data.completed.len() as u32,
    });
    let prior = std::mem::take(&mut data.completed);
    let result = drive(prog, sentinel, data, cfg);
    Ok(ResumedExplore { prior, result })
}

/// Explores all paths of `prog` starting from `entry` in `initial` state,
/// on the calling thread.
///
/// Budgets are enforced at the point work is *produced*, not merely when it
/// is popped: the result never holds more than `max_paths` paths, and a
/// budget break drains the remaining worklist into
/// [`ExploreOutcome::Truncated`] paths (or `dropped_paths` once `max_paths`
/// is full) instead of silently discarding it.
///
/// Deadline expiry and cancellation stop the loop the same way a budget
/// does, with the parked paths counted in [`ExploreDiagnostics`]; a panic
/// while stepping is isolated to its path (see
/// [`ExploreOutcome::EngineError`]).
pub fn explore<S: GilState>(
    prog: &Prog,
    entry: &str,
    initial: S,
    cfg: ExploreConfig,
) -> ExploreResult<S> {
    let (sentinel, start) = seed(entry, initial, &cfg);
    drive(prog, sentinel, start, cfg)
}

/// Retired: the same as [`explore`]. It remains only because the
/// benchmark's runner calls it, and goes with the next change to the
/// benchmark.
#[doc(hidden)]
pub fn explore_with<S: GilState>(
    prog: &Prog,
    entry: &str,
    initial: S,
    cfg: ExploreConfig,
) -> ExploreResult<S> {
    explore(prog, entry, initial, cfg)
}

/// Why a forced-branch replay could not follow its trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The program branched more often than the trace has entries.
    TraceExhausted {
        /// Commands executed when the trace ran dry.
        cmds: u64,
    },
    /// The trace picked a successor index the step did not produce.
    NoSuchArm {
        /// The trace's successor index.
        index: u32,
        /// How many successors the step actually produced.
        arms: usize,
    },
    /// A step produced no successor at all (every branch infeasible).
    DeadEnd {
        /// Commands executed when the path died.
        cmds: u64,
    },
    /// The command budget ran out before the path finished.
    BudgetExhausted,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::TraceExhausted { cmds } => {
                write!(f, "trace exhausted after {cmds} commands")
            }
            ReplayError::NoSuchArm { index, arms } => {
                write!(f, "trace picked arm {index} of {arms}")
            }
            ReplayError::DeadEnd { cmds } => {
                write!(f, "no feasible successor after {cmds} commands")
            }
            ReplayError::BudgetExhausted => write!(f, "replay command budget exhausted"),
        }
    }
}

/// Deterministic single-path replay: re-executes `entry` from `initial`,
/// forcing the successor index recorded in `trace` at every branching
/// step (the branch trace of a [`PathResult`] or journal path id).
///
/// Allocator sites are re-seeded for free — a fresh state replays the
/// same `uSym`/`iSym` sequence, because allocation order is a function of
/// the path, and the path is forced. Replaying a finished path's trace on
/// an equal initial state therefore reproduces its final state and
/// outcome exactly; the differential harness leans on this to turn a
/// divergent path into a standalone, debuggable repro.
///
/// # Errors
///
/// Fails when the trace and the program disagree (more or fewer branch
/// points than recorded, or an arm index out of range) — which, on a
/// replay of a just-explored path, indicates nondeterminism in the engine
/// or a memory model — or when `max_cmds` runs out.
pub fn replay_path<S: GilState>(
    prog: &Prog,
    entry: &str,
    initial: S,
    trace: &[u32],
    max_cmds: u64,
) -> Result<PathResult<S>, ReplayError> {
    let compiled = prog.bytecode();
    let mut scratch = EvalScratch::new();
    let progress = AtomicU64::new(0);
    // Replay has no deadline or cancellation; the default interrupt never
    // fires.
    let interrupt = Interrupt::default();
    let mut config = Config::entry(entry, initial);
    let mut cmds = 0u64;
    let mut followed: Vec<u32> = Vec::new();
    let mut next = trace.iter().copied();
    loop {
        if cmds >= max_cmds {
            return Err(ReplayError::BudgetExhausted);
        }
        let limit = BLOCK_MAX.min(max_cmds - cmds);
        progress.store(0, Ordering::Relaxed);
        let mut outs = step_block(
            &compiled,
            config,
            limit,
            &interrupt,
            &progress,
            &mut scratch,
            None,
        );
        cmds += progress.load(Ordering::Relaxed).max(1);
        let pick = if outs.len() > 1 {
            let Some(i) = next.next() else {
                return Err(ReplayError::TraceExhausted { cmds });
            };
            if (i as usize) >= outs.len() {
                return Err(ReplayError::NoSuchArm {
                    index: i,
                    arms: outs.len(),
                });
            }
            followed.push(i);
            i as usize
        } else if outs.is_empty() {
            return Err(ReplayError::DeadEnd { cmds });
        } else {
            0
        };
        match outs.swap_remove(pick) {
            StepOut::Next(c) => config = c,
            StepOut::Done(Final { state, outcome }) => {
                return Ok(PathResult {
                    state,
                    outcome: outcome.into(),
                    cmds,
                    trace: followed,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{SymBranch, SymbolicMemory};
    use crate::symbolic::SymbolicState;
    use gillian_gil::{Cmd, Expr, Proc};
    use gillian_solver::{PathCondition, Solver};
    use std::sync::Arc;

    #[derive(Clone, Debug, Default)]
    struct NoMem;
    impl SymbolicMemory for NoMem {
        fn execute_action(
            self,
            name: &str,
            _: &Expr,
            pc: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            vec![SymBranch {
                memory: NoMem,
                outcome: Err(Expr::str(format!("no actions ({name})"))),
                pc: pc.clone(),
            }]
        }
    }

    type St = SymbolicState<NoMem>;

    fn sym_state() -> St {
        SymbolicState::new(Arc::new(Solver::optimized()))
    }

    /// main() { x := iSym; ifgoto x < 10 ret; fail "big"; ret: return x }
    fn branching_prog() -> Prog {
        Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::isym("x", 0),
                Cmd::IfGoto(Expr::pvar("x").lt(Expr::int(10)), 3),
                Cmd::Fail(Expr::str("big")),
                Cmd::Return(Expr::pvar("x")),
            ],
        )])
    }

    #[test]
    fn symbolic_exploration_covers_both_branches() {
        let r = explore(
            &branching_prog(),
            "main",
            sym_state(),
            ExploreConfig::default(),
        );
        assert_eq!(r.paths.len(), 2);
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.normal().count(), 1);
        assert!(!r.truncated);
        assert!(r.total_cmds >= 4);
        assert!(r.diagnostics.is_clean());
        assert!(!r.bounded());
    }

    #[test]
    fn path_results_carry_their_branch_trace() {
        let r = explore(
            &branching_prog(),
            "main",
            sym_state(),
            ExploreConfig::default(),
        );
        let traces: Vec<&[u32]> = r.paths.iter().map(|p| p.trace.as_slice()).collect();
        assert_eq!(traces.len(), 2);
        assert_ne!(traces[0], traces[1], "distinct paths, distinct traces");
        assert!(traces.iter().all(|t| t.len() == 1), "one branch point");
    }

    #[test]
    fn replay_reproduces_each_explored_path() {
        let solver = Arc::new(Solver::optimized());
        let r = explore(
            &branching_prog(),
            "main",
            SymbolicState::<NoMem>::new(solver.clone()),
            ExploreConfig::default(),
        );
        assert_eq!(r.paths.len(), 2);
        for path in &r.paths {
            let replayed = replay_path(
                &branching_prog(),
                "main",
                SymbolicState::<NoMem>::new(solver.clone()),
                &path.trace,
                10_000,
            )
            .expect("replay follows a just-explored trace");
            assert_eq!(replayed.outcome, path.outcome);
            assert_eq!(replayed.trace, path.trace);
            assert_eq!(replayed.state.pc, path.state.pc);
        }
    }

    #[test]
    fn replay_rejects_trace_program_disagreements() {
        let solver = Arc::new(Solver::optimized());
        // Arm index beyond what the single ifgoto can produce.
        let err = replay_path(
            &branching_prog(),
            "main",
            SymbolicState::<NoMem>::new(solver.clone()),
            &[7],
            10_000,
        )
        .unwrap_err();
        assert!(matches!(err, ReplayError::NoSuchArm { index: 7, .. }));
        // Too few entries for the branch points along the path.
        let err = replay_path(
            &branching_prog(),
            "main",
            SymbolicState::<NoMem>::new(solver),
            &[],
            10_000,
        )
        .unwrap_err();
        assert!(matches!(err, ReplayError::TraceExhausted { .. }));
    }

    #[test]
    fn loops_are_unrolled_up_to_the_bound() {
        // main() { x := iSym; loop: ifgoto x < 1000000 body else done... }
        // An infinite symbolic loop must be truncated, not hang.
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::assign("x", Expr::int(0)),
                Cmd::assign("x", Expr::pvar("x").add(Expr::int(1))),
                Cmd::Goto(1),
            ],
        )]);
        let cfg = ExploreConfig {
            max_cmds_per_path: 100,
            ..Default::default()
        };
        let r = explore(&prog, "main", sym_state(), cfg);
        assert!(r.truncated);
        assert!(matches!(r.paths[0].outcome, ExploreOutcome::Truncated));
    }

    #[test]
    fn global_budget_truncates() {
        let cfg = ExploreConfig {
            max_total_cmds: 2,
            ..Default::default()
        };
        let r = explore(&branching_prog(), "main", sym_state(), cfg);
        assert!(r.truncated);
    }

    #[test]
    fn global_budget_break_surfaces_pending_paths() {
        // With a 2-command budget the ifgoto has just been expanded into
        // two pending configurations; neither may be silently lost.
        let cfg = ExploreConfig {
            max_total_cmds: 2,
            ..Default::default()
        };
        let r = explore(&branching_prog(), "main", sym_state(), cfg);
        assert_eq!(r.total_cmds, 2);
        assert_eq!(r.paths.len(), 2, "both pending branches surface");
        assert!(r
            .paths
            .iter()
            .all(|p| p.outcome == ExploreOutcome::Truncated));
        assert_eq!(r.dropped_paths, 0);
        // Command-budget truncation is not an interruption.
        assert_eq!(r.diagnostics.deadline_hits, 0);
        assert_eq!(r.diagnostics.cancellations, 0);
    }

    /// A memory whose single action fails on *two* branches at once, so one
    /// step can finish several paths — the overflow case for `max_paths`.
    #[derive(Clone, Debug, Default)]
    struct TwoErrMem;
    impl SymbolicMemory for TwoErrMem {
        fn execute_action(
            self,
            _: &str,
            _: &Expr,
            pc: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            vec![
                SymBranch::err(TwoErrMem, Expr::str("first"), pc.clone()),
                SymBranch::err(TwoErrMem, Expr::str("second"), pc.clone()),
            ]
        }
    }

    #[test]
    fn max_paths_is_never_exceeded() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![Cmd::Action {
                lhs: "r".into(),
                name: "boom".into(),
                arg: Expr::int(0),
            }],
        )]);
        let cfg = ExploreConfig {
            max_paths: 1,
            ..Default::default()
        };
        let r = explore(
            &prog,
            "main",
            SymbolicState::<TwoErrMem>::new(Arc::new(Solver::optimized())),
            cfg,
        );
        assert_eq!(r.paths.len(), 1, "the cap binds even within one step");
        assert_eq!(r.dropped_paths, 1, "the overflow path is accounted for");
        assert!(r.truncated);
    }

    #[test]
    fn vanish_paths_are_collected_but_harmless() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::isym("x", 0),
                // assume x = 5 (compiled form: ifgoto (x=5) 3; vanish)
                Cmd::IfGoto(Expr::pvar("x").eq(Expr::int(5)), 3),
                Cmd::Vanish,
                Cmd::Return(Expr::pvar("x")),
            ],
        )]);
        let r = explore(&prog, "main", sym_state(), ExploreConfig::default());
        let vanished = r
            .paths
            .iter()
            .filter(|p| p.outcome == ExploreOutcome::Vanished)
            .count();
        assert_eq!(vanished, 1);
        assert_eq!(r.normal().count(), 1);
        // The surviving path's pc knows x = 5.
        let normal = r.normal().next().unwrap();
        let pc = &normal.state.pc;
        assert!(
            pc.conjuncts().iter().any(|c| c.to_string().contains("= 5")),
            "pc {pc} should pin x to 5"
        );
    }
}

#[cfg(test)]
mod strategy_tests {
    use super::*;
    use crate::memory::{SymBranch, SymbolicMemory};
    use crate::symbolic::SymbolicState;
    use gillian_gil::{Cmd, Expr, Proc, Prog};
    use gillian_solver::{PathCondition, Solver};
    use std::sync::Arc;

    #[derive(Clone, Debug, Default)]
    struct NoMem;
    impl SymbolicMemory for NoMem {
        fn execute_action(
            self,
            _: &str,
            arg: &Expr,
            pc: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            vec![SymBranch::ok(NoMem, arg.clone(), pc.clone())]
        }
    }

    /// Three sequential symbolic branches → eight paths.
    fn wide_prog() -> Prog {
        let mut body = Vec::new();
        for i in 0..3u32 {
            let x = format!("x{i}");
            body.push(Cmd::isym(&x, i));
            let at = body.len();
            body.push(Cmd::IfGoto(Expr::pvar(&x).eq(Expr::int(0)), at + 1));
        }
        body.push(Cmd::Return(Expr::int(0)));
        Prog::from_procs([Proc::new("main", [], body)])
    }

    fn state() -> SymbolicState<NoMem> {
        SymbolicState::new(Arc::new(Solver::optimized()))
    }

    fn sorted_pcs(r: &ExploreResult<SymbolicState<NoMem>>) -> Vec<String> {
        let mut pcs: Vec<String> = r.paths.iter().map(|p| p.state.pc.to_string()).collect();
        pcs.sort();
        pcs
    }

    #[test]
    fn dfs_and_bfs_find_the_same_paths() {
        let dfs = explore(&wide_prog(), "main", state(), ExploreConfig::default());
        let bfs = explore(
            &wide_prog(),
            "main",
            state(),
            ExploreConfig {
                strategy: SearchStrategy::Bfs,
                ..Default::default()
            },
        );
        assert_eq!(dfs.paths.len(), 8);
        assert_eq!(bfs.paths.len(), 8);
        assert_eq!(dfs.total_cmds, bfs.total_cmds);
        assert_eq!(
            sorted_pcs(&dfs),
            sorted_pcs(&bfs),
            "same path set, different order"
        );
    }

    #[test]
    fn resilience_fields_armed_change_nothing() {
        // A generous deadline and a live (uncancelled) token must be
        // invisible: same paths in the same order, clean diagnostics.
        let cfg = ExploreConfig::default().with_deadline(std::time::Duration::from_secs(3600));
        let plain = explore(&wide_prog(), "main", state(), ExploreConfig::default());
        let armed = explore(&wide_prog(), "main", state(), cfg);
        let pcs = |r: &ExploreResult<SymbolicState<NoMem>>| -> Vec<String> {
            r.paths.iter().map(|p| p.state.pc.to_string()).collect()
        };
        assert_eq!(pcs(&armed), pcs(&plain));
        assert_eq!(armed.total_cmds, plain.total_cmds);
        assert!(armed.diagnostics.is_clean());
        assert!(!armed.bounded());
    }

    #[test]
    fn max_paths_bounds_the_result_and_reports_the_rest() {
        let r = explore(
            &wide_prog(),
            "main",
            state(),
            ExploreConfig {
                max_paths: 3,
                ..Default::default()
            },
        );
        assert_eq!(r.paths.len(), 3);
        assert!(r.truncated);
        // Everything the program could produce is either a path or counted
        // dropped: nothing vanishes silently.
        assert!(r.paths.len() + r.dropped_paths >= 4);
    }

    #[test]
    fn global_budget_truncates_without_losing_work() {
        let r = explore(
            &wide_prog(),
            "main",
            state(),
            ExploreConfig {
                max_total_cmds: 3,
                ..Default::default()
            },
        );
        assert!(r.truncated);
        assert_eq!(r.total_cmds, 3);
        assert!(
            r.paths
                .iter()
                .any(|p| p.outcome == ExploreOutcome::Truncated),
            "cut-off work surfaces as truncated paths"
        );
    }

    #[test]
    fn path_dropping_bounds_the_frontier_and_is_reported() {
        let r = explore(
            &wide_prog(),
            "main",
            state(),
            ExploreConfig {
                max_pending: Some(1),
                ..Default::default()
            },
        );
        assert!(r.dropped_paths > 0, "branches beyond the cap are dropped");
        assert!(r.truncated);
        // The surviving paths are still complete, valid traces.
        assert!(r
            .paths
            .iter()
            .all(|p| p.outcome != ExploreOutcome::Truncated));
        assert!(r.paths.len() + r.dropped_paths >= 4);
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::memory::{SymBranch, SymbolicMemory};
    use crate::symbolic::SymbolicState;
    use gillian_gil::{Cmd, Expr, Proc, Prog};
    use gillian_solver::{PathCondition, Solver};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    /// Echoes its argument, except the `boom` action panics.
    #[derive(Clone, Debug, Default)]
    struct BoomMem;
    impl SymbolicMemory for BoomMem {
        fn execute_action(
            self,
            name: &str,
            arg: &Expr,
            pc: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            if name == "boom" {
                panic!("boom action");
            }
            vec![SymBranch::ok(BoomMem, arg.clone(), pc.clone())]
        }
    }

    fn state<M: SymbolicMemory>() -> SymbolicState<M> {
        SymbolicState::new(Arc::new(Solver::optimized()))
    }

    /// x := iSym; ifgoto (x < 0) boom-branch; return 0 — one healthy
    /// sibling, one path that panics inside the memory model.
    fn boom_on_negative() -> Prog {
        Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::isym("x", 0),
                Cmd::IfGoto(Expr::pvar("x").lt(Expr::int(0)), 3),
                Cmd::Return(Expr::int(0)),
                Cmd::Action {
                    lhs: "r".into(),
                    name: "boom".into(),
                    arg: Expr::int(0),
                },
                Cmd::Return(Expr::pvar("r")),
            ],
        )])
    }

    #[test]
    fn panic_is_isolated_to_its_path() {
        let r = explore(
            &boom_on_negative(),
            "main",
            state::<BoomMem>(),
            ExploreConfig::default(),
        );
        assert_eq!(r.diagnostics.engine_errors, 1);
        assert!(r.truncated && r.bounded());
        assert_eq!(r.normal().count(), 1, "the sibling path finished");
        let (payload, trace) = r
            .paths
            .iter()
            .find_map(|p| match &p.outcome {
                ExploreOutcome::EngineError { payload, trace } => {
                    Some((payload.clone(), trace.clone()))
                }
                _ => None,
            })
            .expect("an EngineError path");
        assert!(payload.contains("boom action"), "payload: {payload}");
        assert!(
            payload.contains("explore.rs"),
            "payload should carry the source location: {payload}"
        );
        assert_eq!(trace, vec![0], "the true branch of the single split died");
    }

    #[test]
    fn pre_expired_deadline_parks_all_work() {
        let cfg = ExploreConfig::default().with_deadline(Duration::ZERO);
        let r = explore(&boom_on_negative(), "main", state::<BoomMem>(), cfg);
        assert_eq!(r.total_cmds, 0, "nothing ran");
        assert_eq!(r.paths.len(), 1, "the entry configuration is parked");
        assert_eq!(r.paths[0].outcome, ExploreOutcome::Truncated);
        assert_eq!(r.diagnostics.deadline_hits, 1);
        assert!(r.truncated && r.bounded());
    }

    #[test]
    fn cancellation_parks_all_work() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let cfg = ExploreConfig {
            cancel,
            ..Default::default()
        };
        let r = explore(&boom_on_negative(), "main", state::<BoomMem>(), cfg);
        assert_eq!(r.total_cmds, 0);
        assert_eq!(r.diagnostics.cancellations, 1);
        assert!(r.truncated);
    }

    /// A memory whose `boom` action arms a flag and panics; once armed,
    /// *cloning* the memory panics too. This poisons even the engine's
    /// sentinel-clone fallback, proving a hostile `Clone` cannot kill a
    /// run either — the path is counted, with no state to report.
    #[derive(Debug, Default)]
    struct CloneBomb {
        armed: Arc<AtomicBool>,
    }
    impl Clone for CloneBomb {
        fn clone(&self) -> Self {
            if self.armed.load(Ordering::Relaxed) {
                panic!("clone after arm");
            }
            CloneBomb {
                armed: self.armed.clone(),
            }
        }
    }
    impl SymbolicMemory for CloneBomb {
        fn execute_action(
            self,
            name: &str,
            arg: &Expr,
            pc: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            if name == "boom" {
                self.armed.store(true, Ordering::Relaxed);
                panic!("armed boom");
            }
            vec![SymBranch::ok(self.clone(), arg.clone(), pc.clone())]
        }
    }

    #[test]
    fn panicking_clone_cannot_kill_the_run() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::Action {
                    lhs: "r".into(),
                    name: "boom".into(),
                    arg: Expr::int(0),
                },
                Cmd::Return(Expr::pvar("r")),
            ],
        )]);
        let r = explore(
            &prog,
            "main",
            state::<CloneBomb>(),
            ExploreConfig::default(),
        );
        assert_eq!(r.diagnostics.engine_errors, 1);
        assert!(r.truncated);
        assert!(r.paths.is_empty(), "no state survived to report");
    }
}
