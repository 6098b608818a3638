#![warn(missing_docs)]

//! # Gillian telemetry: structured tracing and metrics
//!
//! The observability substrate for the whole platform (see `DESIGN.md`
//! §11). Dependency-free, like the rest of the workspace's shims; every
//! layer of the engine records into it and nothing outside this crate
//! writes to stdout/stderr or the filesystem unless a sink is explicitly
//! configured.
//!
//! Three pieces:
//!
//! - [`metrics`] — a process-global registry of named [`Counter`]s and
//!   log2-bucketed latency [`Histogram`]s. Always compiled, always
//!   recorded; the cost of an armed-but-unexported metric is one or two
//!   relaxed atomic operations, which is why runs can report latency
//!   distributions without a "tracing build".
//! - [`journal`] — a structured **event journal** for one exploration
//!   run: typed [`Event`]s (path lifecycle, sat queries, memory actions,
//!   interruptions) written to per-worker buffers with monotonic
//!   timestamps, merged deterministically at explore end. Disabled by
//!   default ([`Journal::disabled`] is a `None` — emitting is a no-op);
//!   enabled by the run's configuration (the bins enable it from
//!   `GILLIAN_TRACE` and friends).
//! - [`export`]/[`report`] — sinks. A JSONL trace file
//!   (`GILLIAN_TRACE=path.jsonl`), a Chrome `trace_event` file for
//!   `about://tracing` (`GILLIAN_TRACE_CHROME=path.json`), and a human
//!   [`Report`] (latency histograms, top-k slowest sat queries,
//!   branch-tree shape, per-language action table) attached to every
//!   exploration result.
//!
//! Path identity is the **branch trace** — the successor index chosen at
//! every branching step from the entry — rendered as `"0.1.0"` (empty
//! string for the root). Branch traces are schedule-independent, so the
//! merged journal names the same paths whether a run used one worker or
//! eight.

pub mod export;
pub mod journal;
pub mod json;
pub mod live;
pub mod metrics;
pub mod report;
pub mod tree;

pub use export::{trace_check_summary, validate_chrome, validate_jsonl};
pub use journal::{Event, EventRecord, Journal, PathId, Verdict, WorkerLog};
pub use live::{LiveSink, LiveStats};
pub use metrics::{registry, Counter, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use report::{LangActionRow, Report, SlowQuery, TreeStats};
pub use tree::{ExploreTree, NodeCost, ProcStat, TreeNode};

/// Well-known metric names, so recorders and the report agree on
/// spelling. The registry accepts any `&'static str`; these are the ones
/// the engine itself records.
pub mod names {
    /// Latency histogram (µs) of full satisfiability checks (cache hits
    /// included — they are the fast mode of the same distribution).
    pub const SAT_MICROS: &str = "solver.sat_micros";
    /// Latency histogram (µs) of full-tier simplifier runs (memo misses
    /// only: hits are counted, not timed — timing them would cost more
    /// than the probe they measure).
    pub const SIMPLIFY_MICROS: &str = "solver.simplify_micros";
    /// Latency histogram (µs) of symbolic memory-model action dispatch.
    pub const ACTION_MICROS: &str = "memory.action_micros";
    /// Sampled latency histogram (ns) of interner lookups (1 in 1024).
    pub const INTERN_LOOKUP_NANOS: &str = "intern.lookup_nanos";
    /// Satisfiability queries issued (all solvers in the process).
    pub const SAT_QUERIES: &str = "solver.sat_queries";
    /// Satisfiability queries answered from a solver's cache.
    pub const SAT_CACHE_HITS: &str = "solver.sat_cache_hits";
    /// `Unknown` satisfiability verdicts.
    pub const SAT_UNKNOWNS: &str = "solver.sat_unknowns";
    /// Satisfiability queries answered by extending a frozen per-prefix
    /// solve context instead of re-solving the whole conjunction: the sum
    /// of the four `SAT_REUSE_*` layer counters.
    pub const SAT_INCREMENTAL_HITS: &str = "solver.sat_incremental_hits";
    /// Incremental answers read off a frozen context's own verdict: an
    /// unsatisfiable prefix (or, with caching off, an empty delta).
    pub const SAT_REUSE_UNSAT_PREFIX: &str = "solver.sat_reuse_unsat_prefix";
    /// Incremental answers of the fast extension: a delta without
    /// equalities or disjunctions, propagated through the frozen state.
    pub const SAT_REUSE_FAST: &str = "solver.sat_reuse_fast";
    /// Incremental answers of the equality extension: a delta with
    /// equalities merged into a copy of the frozen union-find (including
    /// the residual-disequality rule's refutations).
    pub const SAT_REUSE_EQUALITIES: &str = "solver.sat_reuse_equalities";
    /// Incremental answers of the seeded full check, which re-solves the
    /// frozen residual together with the delta.
    pub const SAT_REUSE_SEEDED_FULL: &str = "solver.sat_reuse_seeded_full";
    /// Satisfiability queries answered by the implication-aware verdict
    /// index. Nothing increments it since the index was removed; the name
    /// stays for consumers that still read it, as 0.
    pub const SAT_IMPLICATION_HITS: &str = "solver.sat_implication_hits";
    /// Histogram of reused-prefix depth (conjuncts inherited from the
    /// deepest already-solved ancestor) on incremental answers.
    pub const SAT_PREFIX_DEPTH: &str = "solver.sat_reused_prefix_depth";
    /// Counter-model searches (`Solver::model`,
    /// `Solver::model_for_replay` and `Solver::witness`).
    pub const MODEL_SEARCHES: &str = "solver.model_searches";
    /// Model searches that ended without a model.
    pub const MODEL_SEARCH_FAILURES: &str = "solver.model_search_failures";
    /// Search-tree nodes visited by model searches (added once per
    /// search).
    pub const MODEL_NODES: &str = "solver.model_nodes";
    /// Escalation tiers not run because an earlier tier exhausted the
    /// search space (a larger budget would search the same tree).
    pub const MODEL_TIERS_SKIPPED: &str = "solver.model_tiers_skipped";
    /// Symbolic paths replayed concretely by the differential oracle.
    pub const DIFFTEST_REPLAYS: &str = "difftest.replays";
    /// Symbolic-vs-concrete divergences found by the differential oracle.
    pub const DIFFTEST_DIVERGENCES: &str = "difftest.divergences";
    /// Paths the differential oracle could not check (truncated, engine
    /// error, or no witness model even after budget escalation).
    pub const DIFFTEST_SKIPPED: &str = "difftest.skipped_paths";
    /// Witness models the oracle obtained only through an escalated
    /// tier of `Solver::witness`.
    pub const DIFFTEST_FALLBACK_MODELS: &str = "difftest.fallback_models";
    /// Interner nodes minted (allocations performed).
    pub const INTERN_MINTS: &str = "intern.mints";
    /// Interner hits (allocations avoided by sharing).
    pub const INTERN_HITS: &str = "intern.hits";
    /// Interner nodes currently live (a gauge, not a flow).
    pub const INTERN_LIVE: &str = "intern.live";
    /// Checkpoints of the exploration frontier written to disk.
    pub const CHECKPOINT_WRITES: &str = "checkpoint.writes";
    /// Total bytes of checkpoint files written.
    pub const CHECKPOINT_BYTES: &str = "checkpoint.bytes";
    /// Latency histogram (µs) of checkpoint serialization + atomic write.
    pub const CHECKPOINT_WRITE_MICROS: &str = "checkpoint.write_micros";
    /// Runs resumed from a checkpoint file.
    pub const CHECKPOINT_RESUMES: &str = "checkpoint.resumes";
    /// Checkpoint writes that failed (I/O or serialization); exploration
    /// continues regardless — checkpointing is best-effort durability.
    pub const CHECKPOINT_FAILED_WRITES: &str = "checkpoint.failed_writes";
    /// Faults injected by the deterministic fault harness (all kinds).
    pub const FAULT_INJECTED: &str = "fault.injected";
    /// Simulated process kills injected by the fault harness.
    pub const FAULT_KILLS: &str = "fault.kills";
    /// Basic-block dispatches executed by the bytecode backend (each one
    /// is a `step_block` call retiring up to a block's worth of
    /// commands).
    pub const EXEC_BLOCKS: &str = "exec.blocks";
    /// Commands retired by the bytecode backend across all blocks.
    pub const EXEC_CMDS: &str = "exec.cmds";
    /// GIL programs compiled to register bytecode (one-shot, at
    /// exploration start).
    pub const EXEC_COMPILES: &str = "exec.compiles";
    /// Dispatch histogram: commands retired per basic-block dispatch.
    /// A tall low bucket means branch-heavy code (blocks cut short by
    /// forks); mass in the high buckets means straight-line fusion is
    /// paying off.
    pub const EXEC_BLOCK_CMDS: &str = "exec.block_cmds";
    /// Inline-cache hits in the bytecode dispatcher: an `Action`
    /// instruction whose per-site cache already held the resolved
    /// action code.
    pub const EXEC_IC_HITS: &str = "exec.ic_hits";
    /// Inline-cache misses: an `Action` site resolved by name (the
    /// one-time fill of each site's cache, so misses ≈ distinct
    /// compiled action sites executed).
    pub const EXEC_IC_MISSES: &str = "exec.ic_misses";
    /// Procedure summaries harvested from clean call returns (no fork,
    /// no memory action, no fresh symbol inside the callee window).
    pub const SUMMARY_RECORDED: &str = "summary.recorded";
    /// Call sites answered by splicing a recorded summary post-state
    /// instead of re-executing the callee.
    pub const SUMMARY_APPLIED: &str = "summary.applied";
    /// Call sites that had candidate summaries but failed the
    /// applicability check (arguments, subsumption, typing environment,
    /// or a delta verdict deviation) and fell through to execution.
    pub const SUMMARY_MISSED: &str = "summary.missed";
    /// Open call windows invalidated by a footprint escape (fork, memory
    /// action, fresh symbol) before the frame returned.
    pub const SUMMARY_ESCAPED: &str = "summary.escaped";
    /// Journal events lost to ring-buffer wrap or shared-buffer
    /// shedding, process-wide (per-run counts live on the journal; this
    /// counter is what the report and the live console surface).
    pub const JOURNAL_DROPPED_EVENTS: &str = "journal.dropped_events";
    /// Live-mode snapshot frames written to the `GILLIAN_LIVE` sink.
    pub const LIVE_FRAMES: &str = "live.frames";
}

use std::sync::OnceLock;
use std::time::Instant;

/// The process telemetry epoch: all event timestamps are microseconds
/// since the first call. Monotonic (backed by [`Instant`]), so merged
/// journals order consistently within a process.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process telemetry [`epoch`].
pub fn now_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}
