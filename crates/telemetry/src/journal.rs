//! The structured event journal: per-worker ring buffers of typed events.
//!
//! One [`Journal`] serves one exploration run. Each engine worker obtains
//! a [`WorkerLog`] — an owned, lock-free ring buffer — and emits typed
//! [`Event`]s with monotonic timestamps as it executes; shared components
//! (the solver, which serves every worker at once) emit through the
//! journal's shared buffer. At explore end the engine merges all buffers
//! into one deterministic record ([`Journal::finish_run`]), exports it to
//! any configured sinks, and stashes it for inspection
//! ([`Journal::last_run`]).
//!
//! A disabled journal (the default) is an `Option::None` all the way
//! down: emitting is a branch on a boolean, no event is constructed, no
//! allocation happens. This is what keeps the library silent and fast
//! unless a run is actually being traced.

use crate::export;
use crate::metrics::{registry, Counter};
use crate::names;
use crate::now_micros;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn dropped_counter() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| registry().counter(names::JOURNAL_DROPPED_EVENTS))
}

thread_local! {
    /// The path the calling thread is currently executing, for
    /// attributing shared-emitter events (sat queries, memory actions)
    /// to exploration-tree nodes. Engines set it around each step only
    /// when the journal is enabled, so the disabled-journal hot path
    /// never touches it.
    static PATH_CTX: RefCell<Option<PathId>> = const { RefCell::new(None) };
}

/// Declares `path` as the calling thread's current path: until cleared,
/// shared-emitter events recorded from this thread carry it as their
/// [`EventRecord::path_ctx`]. Engines call this around each step (only
/// when tracing is on — setting it allocates a clone of the trace).
pub fn set_path_context(path: &[u32]) {
    PATH_CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        match ctx.as_mut() {
            Some(buf) => {
                buf.clear();
                buf.extend_from_slice(path);
            }
            None => *ctx = Some(path.to_vec()),
        }
    });
}

/// Clears the calling thread's path context (between paths, and at
/// explore end so a reused thread never leaks a stale attribution).
pub fn clear_path_context() {
    PATH_CTX.with(|c| *c.borrow_mut() = None);
}

fn path_context() -> Option<PathId> {
    PATH_CTX.with(|c| c.borrow().clone())
}

/// A path's identity: the branch trace (successor index chosen at every
/// branching step since the entry). Schedule-independent, unlike worker
/// ids or timestamps. Rendered as `"0.1.0"`; the root path is the empty
/// trace, rendered as `""`.
pub type PathId = Vec<u32>;

/// Renders a path id (`""` for the root).
pub fn path_string(path: &[u32]) -> String {
    path.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

/// A satisfiability verdict, journal-side (mirror of the solver's enum —
/// this crate sits below the solver and cannot name it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Proven satisfiable.
    Sat,
    /// Proven unsatisfiable.
    Unsat,
    /// Undecided within budget/deadline.
    Unknown,
}

impl Verdict {
    /// The JSONL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Sat => "sat",
            Verdict::Unsat => "unsat",
            Verdict::Unknown => "unknown",
        }
    }
}

/// One typed journal event.
#[derive(Clone, Debug)]
pub enum Event {
    /// The run's root path began executing.
    PathStarted {
        /// The (root) path.
        path: PathId,
    },
    /// A step of `parent` branched into `arms` successor paths
    /// (`parent.0` … `parent.{arms-1}`). These edges, together with the
    /// finished path ids, give the branch tree independently of
    /// scheduling.
    PathForked {
        /// The branching path.
        parent: PathId,
        /// Number of successors.
        arms: u32,
    },
    /// A path was recorded in the exploration result.
    PathFinished {
        /// The finished path.
        path: PathId,
        /// Outcome kind: `normal`, `error`, `vanished`, `truncated`,
        /// `engine_error`.
        outcome: &'static str,
        /// Commands executed along the path.
        cmds: u64,
    },
    /// One satisfiability query, with cache-hit attribution.
    SatQuery {
        /// The canonical cache key's hash (stable within a process).
        key: u64,
        /// Conjunct count of the queried path condition.
        conjuncts: u32,
        /// The verdict.
        verdict: Verdict,
        /// Wall-clock latency in microseconds.
        micros: u64,
        /// Whether the verdict came from the solver's result cache.
        cache_hit: bool,
        /// Rendering of the path condition, captured only for queries
        /// slow enough to matter (see `SLOW_QUERY_RENDER_MICROS`).
        pc: String,
    },
    /// One symbolic memory-model action dispatch.
    ActionExec {
        /// The instantiation's language tag (`while`, `minijs`, `minic`).
        lang: &'static str,
        /// The action name.
        action: String,
        /// Number of branches the action returned.
        branches: u32,
        /// Wall-clock latency in microseconds.
        micros: u64,
    },
    /// Exclusive execution time attributed to one procedure (call-stack
    /// segment) while stepping one path. Emitted by the engines from the
    /// bytecode dispatcher's block profile; the profiler's folded-stacks
    /// export and per-procedure rollups are built from these.
    ProcTime {
        /// The path being stepped.
        path: PathId,
        /// The call stack at the time, rendered bottom-first and joined
        /// with `;` (e.g. `"main;f"`). The last frame is the procedure
        /// the time is attributed to.
        stack: String,
        /// Commands retired during the segment.
        cmds: u64,
        /// Exclusive wall-clock time of the segment in microseconds.
        micros: u64,
    },
    /// The run's wall-clock deadline fired.
    DeadlineHit {
        /// The path being executed when the deadline was observed (empty
        /// when it fired between paths).
        path: PathId,
    },
    /// A panic was isolated to one path.
    PanicIsolated {
        /// The path that died.
        path: PathId,
        /// The captured panic message.
        payload: String,
    },
    /// A checkpoint of the exploration frontier was written to disk.
    CheckpointWritten {
        /// Pending frontier items captured in the checkpoint.
        pending: u32,
        /// Completed-path summaries captured in the checkpoint.
        completed: u32,
        /// Size of the checkpoint file in bytes.
        bytes: u64,
        /// Wall-clock cost of serializing and writing, in microseconds.
        micros: u64,
    },
    /// A run resumed from a checkpoint file.
    Resumed {
        /// Frontier items restored into the worklist.
        pending: u32,
        /// Completed-path summaries carried over from the prior run.
        completed: u32,
    },
    /// The deterministic fault harness injected a fault.
    FaultInjected {
        /// The global scheduling-point index the decision was made at.
        point: u64,
        /// Fault kind: `path_panic`, `solver_unknown`, `sat_latency`,
        /// `kill`.
        fault: &'static str,
    },
}

impl Event {
    /// The JSONL `type` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PathStarted { .. } => "path_started",
            Event::PathForked { .. } => "path_forked",
            Event::PathFinished { .. } => "path_finished",
            Event::SatQuery { .. } => "sat_query",
            Event::ActionExec { .. } => "action_exec",
            Event::ProcTime { .. } => "proc_time",
            Event::DeadlineHit { .. } => "deadline_hit",
            Event::PanicIsolated { .. } => "panic_isolated",
            Event::CheckpointWritten { .. } => "checkpoint_written",
            Event::Resumed { .. } => "resumed",
            Event::FaultInjected { .. } => "fault_injected",
        }
    }

    /// The path this event is about, when it is about one.
    pub fn path(&self) -> Option<&PathId> {
        match self {
            Event::PathStarted { path }
            | Event::PathFinished { path, .. }
            | Event::DeadlineHit { path }
            | Event::PanicIsolated { path, .. }
            | Event::ProcTime { path, .. } => Some(path),
            Event::PathForked { parent, .. } => Some(parent),
            _ => None,
        }
    }

    /// Rank used by the deterministic merge so that, within one path,
    /// lifecycle events order start < fork < finish regardless of which
    /// worker timestamped them.
    fn kind_rank(&self) -> u8 {
        match self {
            Event::PathStarted { .. } => 0,
            Event::PathForked { .. } => 1,
            Event::DeadlineHit { .. } => 2,
            Event::PanicIsolated { .. } => 3,
            Event::PathFinished { .. } => 4,
            Event::SatQuery { .. } => 5,
            Event::ActionExec { .. } => 6,
            Event::ProcTime { .. } => 7,
            Event::CheckpointWritten { .. } => 8,
            Event::Resumed { .. } => 9,
            Event::FaultInjected { .. } => 10,
        }
    }
}

/// One journal entry: an [`Event`] plus its provenance.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Microseconds since the process telemetry epoch.
    pub ts_micros: u64,
    /// The emitting log (0 = the engine's worker loop, [`SHARED_WORKER`] =
    /// shared components such as the solver).
    pub worker: u32,
    /// Per-worker emission sequence number.
    pub seq: u64,
    /// The path the emitting thread was executing, for events that do
    /// not themselves name one (sat queries and memory actions are
    /// emitted by shared components that cannot see the engine's
    /// worklist). Filled from the thread-local [`set_path_context`] at
    /// emission; `None` when no context was declared.
    pub path_ctx: Option<PathId>,
    /// The event.
    pub event: Event,
}

impl EventRecord {
    /// The path this record attributes to: the event's own path when it
    /// carries one, otherwise the emitting thread's path context.
    pub fn path(&self) -> Option<&[u32]> {
        self.event
            .path()
            .map(|p| p.as_slice())
            .or(self.path_ctx.as_deref())
    }
}

/// The `worker` value used by shared (cross-worker) emitters.
pub const SHARED_WORKER: u32 = u32::MAX;

/// Default per-worker ring capacity (events). Beyond it the oldest
/// events are overwritten and counted in `events_dropped`.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Sat queries at or above this latency get their path condition
/// rendered into the [`Event::SatQuery`] record (rendering every query's
/// condition would dominate a traced run).
pub const SLOW_QUERY_RENDER_MICROS: u64 = 100;

#[derive(Debug)]
struct JournalInner {
    capacity: usize,
    /// Buffers retired by finished workers, awaiting the merge.
    retired: Mutex<Vec<Vec<EventRecord>>>,
    /// Events from shared emitters (the solver), appended under a lock —
    /// only ever touched when tracing is on.
    shared: Mutex<Vec<EventRecord>>,
    shared_seq: AtomicU64,
    /// Ring-buffer overwrites across all workers.
    dropped: AtomicU64,
    /// The merged record of the last finished run (kept for tests and
    /// callers that want the raw events after `explore` returns).
    last: Mutex<Arc<Vec<EventRecord>>>,
    /// JSONL sink path, if any.
    jsonl: Option<String>,
    /// Chrome `trace_event` sink path, if any.
    chrome: Option<String>,
    /// Folded-stacks (flamegraph) sink path, if any.
    folded: Option<String>,
}

/// A handle to one run's event journal. Cloning shares the journal.
///
/// The default journal is **disabled**: every emit is a no-op and no
/// memory is allocated. [`Journal::with_sinks`] builds an enabled one
/// that writes JSONL and Chrome `trace_event` files at run end.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    inner: Option<Arc<JournalInner>>,
}

impl Journal {
    /// The disabled journal: emitting is free, merging yields nothing.
    pub fn disabled() -> Journal {
        Journal { inner: None }
    }

    /// An enabled journal with the default capacity and no sinks
    /// (events are merged and reported, not written anywhere).
    pub fn enabled() -> Journal {
        Journal::with_sinks(None, None, DEFAULT_CAPACITY)
    }

    /// An enabled journal writing JSONL to `path` at run end.
    pub fn jsonl_sink(path: impl Into<String>) -> Journal {
        Journal::with_sinks(Some(path.into()), None, DEFAULT_CAPACITY)
    }

    /// An enabled journal with explicit sinks and per-worker capacity.
    pub fn with_sinks(jsonl: Option<String>, chrome: Option<String>, capacity: usize) -> Journal {
        Journal {
            inner: Some(Arc::new(JournalInner {
                capacity: capacity.max(16),
                retired: Mutex::new(Vec::new()),
                shared: Mutex::new(Vec::new()),
                shared_seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                last: Mutex::new(Arc::new(Vec::new())),
                jsonl,
                chrome,
                folded: None,
            })),
        }
    }

    /// This journal with a folded-stacks (flamegraph) sink: at run end
    /// the merged journal is profiled into an exploration tree and its
    /// folded stacks appended to `path`. No-op on a disabled journal.
    pub fn with_folded_sink(mut self, path: impl Into<String>) -> Journal {
        if let Some(inner) = self.inner.take() {
            let mut inner = Arc::try_unwrap(inner).unwrap_or_else(|arc| JournalInner {
                capacity: arc.capacity,
                retired: Mutex::new(Vec::new()),
                shared: Mutex::new(Vec::new()),
                shared_seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                last: Mutex::new(Arc::new(Vec::new())),
                jsonl: arc.jsonl.clone(),
                chrome: arc.chrome.clone(),
                folded: arc.folded.clone(),
            });
            inner.folded = Some(path.into());
            self.inner = Some(Arc::new(inner));
        }
        self
    }

    /// True when events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured JSONL sink path, if any.
    pub fn jsonl_path(&self) -> Option<&str> {
        self.inner.as_ref().and_then(|i| i.jsonl.as_deref())
    }

    /// The configured Chrome-trace sink path, if any.
    pub fn chrome_path(&self) -> Option<&str> {
        self.inner.as_ref().and_then(|i| i.chrome.as_deref())
    }

    /// The configured folded-stacks sink path, if any.
    pub fn folded_path(&self) -> Option<&str> {
        self.inner.as_ref().and_then(|i| i.folded.as_deref())
    }

    /// A log for worker `worker`. Emitting through it is lock-free; the
    /// buffer retires into the journal when the log drops.
    pub fn worker(&self, worker: u32) -> WorkerLog {
        WorkerLog {
            journal: self.clone(),
            worker,
            seq: 0,
            start: 0,
            buf: Vec::new(),
        }
    }

    /// Emits through the shared (locked) buffer — for components that
    /// serve several workers at once, such as the solver. No-op when
    /// disabled; the caller should gate event construction on
    /// [`Journal::is_enabled`].
    pub fn record_shared(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        let seq = inner.shared_seq.fetch_add(1, Ordering::Relaxed);
        let rec = EventRecord {
            ts_micros: now_micros(),
            worker: SHARED_WORKER,
            seq,
            path_ctx: path_context(),
            event,
        };
        let mut shared = lock_unpoisoned(&inner.shared);
        if shared.len() >= inner.capacity * 4 {
            // Bound the shared buffer too; shed the oldest half.
            let keep = shared.len() / 2;
            let cut = shared.len() - keep;
            inner.dropped.fetch_add(cut as u64, Ordering::Relaxed);
            dropped_counter().add(cut as u64);
            shared.drain(..cut);
        }
        shared.push(rec);
    }

    /// Events overwritten by ring-buffer wrap so far.
    pub fn events_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Merges every retired buffer (workers must have retired — i.e.
    /// their `WorkerLog`s dropped — before this is called) plus the
    /// shared buffer into one deterministic record: sorted by path id,
    /// then lifecycle rank, then timestamp/worker/seq as tie-breakers.
    /// Exports to the configured sinks, stashes the result for
    /// [`Journal::last_run`], and returns it.
    pub fn finish_run(&self) -> Arc<Vec<EventRecord>> {
        let Some(inner) = &self.inner else {
            return Arc::new(Vec::new());
        };
        let mut merged: Vec<EventRecord> = Vec::new();
        for buf in lock_unpoisoned(&inner.retired).drain(..) {
            merged.extend(buf);
        }
        merged.extend(lock_unpoisoned(&inner.shared).drain(..));
        merged.sort_by(|a, b| {
            let ka = (a.path().unwrap_or(&[]), a.event.kind_rank());
            let kb = (b.path().unwrap_or(&[]), b.event.kind_rank());
            ka.cmp(&kb)
                .then(a.ts_micros.cmp(&b.ts_micros))
                .then(a.worker.cmp(&b.worker))
                .then(a.seq.cmp(&b.seq))
        });
        let merged = Arc::new(merged);
        if let Some(path) = &inner.jsonl {
            export::append_jsonl(path, &merged, self.events_dropped());
        }
        if let Some(path) = &inner.chrome {
            export::write_chrome_trace(path, &merged);
        }
        if let Some(path) = &inner.folded {
            let tree = crate::tree::ExploreTree::from_records(&merged);
            export::append_folded(path, &tree.folded());
        }
        *lock_unpoisoned(&inner.last) = merged.clone();
        merged
    }

    /// The merged record of the last finished run (empty before any
    /// [`Journal::finish_run`]).
    pub fn last_run(&self) -> Arc<Vec<EventRecord>> {
        self.inner
            .as_ref()
            .map(|i| lock_unpoisoned(&i.last).clone())
            .unwrap_or_default()
    }

    fn retire(&self, buf: Vec<EventRecord>, dropped: u64) {
        let Some(inner) = &self.inner else { return };
        if dropped > 0 {
            inner.dropped.fetch_add(dropped, Ordering::Relaxed);
            dropped_counter().add(dropped);
        }
        if !buf.is_empty() {
            lock_unpoisoned(&inner.retired).push(buf);
        }
    }
}

/// One worker's owned event buffer: a ring of the journal's capacity.
/// Emitting takes no locks; the buffer retires into the journal on drop.
#[derive(Debug)]
pub struct WorkerLog {
    journal: Journal,
    worker: u32,
    seq: u64,
    /// Index of the logically oldest record once the ring has wrapped.
    start: usize,
    buf: Vec<EventRecord>,
}

impl WorkerLog {
    /// True when this log actually collects events.
    pub fn is_enabled(&self) -> bool {
        self.journal.is_enabled()
    }

    /// Emits one event (no-op when the journal is disabled). The closure
    /// form lets call sites skip event construction entirely when off:
    /// `log.emit_with(|| Event::…)`.
    pub fn emit_with(&mut self, make: impl FnOnce() -> Event) {
        let Some(inner) = &self.journal.inner else {
            return;
        };
        let cap = inner.capacity;
        let rec = EventRecord {
            ts_micros: now_micros(),
            worker: self.worker,
            seq: self.seq,
            path_ctx: None,
            event: make(),
        };
        self.seq += 1;
        if self.buf.len() < cap {
            self.buf.push(rec);
        } else {
            // Ring wrap: overwrite the oldest.
            self.buf[self.start] = rec;
            self.start = (self.start + 1) % cap;
        }
    }

    /// Retires the buffer into the journal now (also happens on drop).
    pub fn retire(&mut self) {
        let cap_dropped = self.seq.saturating_sub(self.buf.len() as u64);
        let mut buf = std::mem::take(&mut self.buf);
        buf.rotate_left(self.start);
        self.start = 0;
        self.seq = 0;
        self.journal.retire(buf, cap_dropped);
    }
}

impl Drop for WorkerLog {
    fn drop(&mut self) {
        self.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_is_free_and_empty() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        let mut log = j.worker(0);
        log.emit_with(|| unreachable!("emit must not construct when disabled"));
        drop(log);
        assert!(j.finish_run().is_empty());
    }

    #[test]
    fn events_merge_deterministically_by_path() {
        let j = Journal::enabled();
        let mut w1 = j.worker(1);
        let mut w2 = j.worker(2);
        // Worker 2's events are emitted first but belong to a later path.
        w2.emit_with(|| Event::PathFinished {
            path: vec![1],
            outcome: "normal",
            cmds: 3,
        });
        w1.emit_with(|| Event::PathStarted { path: vec![] });
        w1.emit_with(|| Event::PathForked {
            parent: vec![],
            arms: 2,
        });
        w1.emit_with(|| Event::PathFinished {
            path: vec![0],
            outcome: "error",
            cmds: 2,
        });
        drop(w1);
        drop(w2);
        let merged = j.finish_run();
        let kinds: Vec<_> = merged
            .iter()
            .map(|r| (path_string(r.event.path().unwrap()), r.event.kind()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("".into(), "path_started"),
                ("".into(), "path_forked"),
                ("0".to_string(), "path_finished"),
                ("1".to_string(), "path_finished"),
            ]
        );
        assert_eq!(j.events_dropped(), 0);
        assert_eq!(j.last_run().len(), 4);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let j = Journal::with_sinks(None, None, 16);
        let mut log = j.worker(1);
        for i in 0..40u64 {
            log.emit_with(|| Event::PathFinished {
                path: vec![i as u32],
                outcome: "normal",
                cmds: i,
            });
        }
        drop(log);
        let merged = j.finish_run();
        assert_eq!(merged.len(), 16, "capacity bounds the buffer");
        assert_eq!(j.events_dropped(), 24);
        // The survivors are the *newest* 16 events.
        let min_cmds = merged
            .iter()
            .map(|r| match &r.event {
                Event::PathFinished { cmds, .. } => *cmds,
                _ => unreachable!(),
            })
            .min()
            .unwrap();
        assert_eq!(min_cmds, 24);
    }

    #[test]
    fn shared_records_interleave_with_worker_records() {
        let j = Journal::enabled();
        j.record_shared(Event::SatQuery {
            key: 7,
            conjuncts: 1,
            verdict: Verdict::Sat,
            micros: 10,
            cache_hit: false,
            pc: String::new(),
        });
        let mut log = j.worker(1);
        log.emit_with(|| Event::PathStarted { path: vec![] });
        drop(log);
        let merged = j.finish_run();
        assert_eq!(merged.len(), 2);
        assert!(merged.iter().any(|r| r.worker == SHARED_WORKER));
    }

    #[test]
    fn path_strings_render() {
        assert_eq!(path_string(&[]), "");
        assert_eq!(path_string(&[0, 1, 0]), "0.1.0");
    }

    #[test]
    fn shared_events_carry_the_thread_path_context() {
        let j = Journal::enabled();
        let sat = |key| Event::SatQuery {
            key,
            conjuncts: 1,
            verdict: Verdict::Sat,
            micros: 5,
            cache_hit: false,
            pc: String::new(),
        };
        set_path_context(&[0, 1]);
        j.record_shared(sat(1));
        clear_path_context();
        j.record_shared(sat(2));
        let merged = j.finish_run();
        assert_eq!(merged.len(), 2);
        // The context-free record sorts under the root (empty) path; the
        // attributed one under its context path.
        assert_eq!(merged[0].path(), None);
        assert_eq!(merged[1].path(), Some(&[0u32, 1][..]));
        assert!(matches!(merged[1].event, Event::SatQuery { key: 1, .. }));
    }

    #[test]
    fn journal_drops_feed_the_process_counter() {
        let before = dropped_counter().get();
        let j = Journal::with_sinks(None, None, 16);
        let mut log = j.worker(1);
        for i in 0..40u32 {
            log.emit_with(|| Event::PathStarted { path: vec![i] });
        }
        drop(log);
        j.finish_run();
        assert_eq!(j.events_dropped(), 24);
        assert!(dropped_counter().get() >= before + 24);
    }
}
