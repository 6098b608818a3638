//! The solver façade used by the symbolic execution engine.
//!
//! Wraps simplification, satisfiability and model finding behind one
//! handle, adding result caching and statistics. The paper attributes
//! Gillian-JS's ≈2× speedup over JaVerT 2.0 to "better simplifications and
//! better caching of results" in the first-order solver; [`SolverConfig`]
//! exposes exactly those two switches so the benchmark harness can
//! reproduce both engine configurations (Table 1).

use crate::ctx::{CapturedState, SolveCtx};
use crate::interrupt::Interrupt;
use crate::model::{escalation_tiers, find_model_tiers, Model, ModelBudget, SearchWork};
use crate::pathcond::{PathCondition, PcEnv, PcKey};
use crate::sat::{
    check_conjunction, check_conjunction_capturing, check_extension, Extension, SatBudget,
    SatResult,
};
use crate::simplify;
use gillian_gil::Expr;
use gillian_telemetry::journal::SLOW_QUERY_RENDER_MICROS;
use gillian_telemetry::{names, registry, Counter, Event, Histogram, Journal, Verdict};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::OnceLock;
use std::time::Instant;

/// One simplify memo miss in this many is wall-clock timed into the
/// latency histogram (power of two). Uniform sampling keeps the
/// histogram's shape while keeping the clock off the hot path.
const SIMPLIFY_SAMPLE: u64 = 8;

/// A deterministic fault to inject into one satisfiability query (see
/// [`Solver::set_fault_probe`]). The exploration layer's fault-injection
/// harness uses these to re-exercise `Unknown` semantics and latency
/// resilience under adversarial, seeded schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatFault {
    /// Answer [`SatResult::Unknown`] without solving. Counted in
    /// [`SolverStats::sat_unknowns`] and **never cached**, exactly like an
    /// interrupt-driven unknown: a forced verdict must not poison the memo
    /// table for later queries.
    Unknown,
    /// Sleep for the given duration, then solve normally — models a slow
    /// query without changing any verdict.
    Latency(std::time::Duration),
}

/// The closure consulted once per satisfiability query while a fault probe
/// is installed; `None` means "no fault for this query".
pub type FaultProbe = Arc<dyn Fn() -> Option<SatFault> + Send + Sync>;

/// Slot holding the installed probe; manual `Debug` because closures have
/// none.
#[derive(Default)]
struct FaultProbeSlot(Option<FaultProbe>);

impl std::fmt::Debug for FaultProbeSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "FaultProbeSlot(installed)"
        } else {
            "FaultProbeSlot(none)"
        })
    }
}

thread_local! {
    /// Memo-miss counter driving the 1-in-[`SIMPLIFY_SAMPLE`] probe.
    static TL_SIMPLIFY_SAMPLE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `HashMap` with the deterministic Fx hasher (see `gillian_gil::hashing`).
type FxHashMap<K, V> = HashMap<K, V, gillian_gil::FxBuildHasher>;
/// `HashMap` for keys that already carry a precomputed hash.
type PrehashedMap<K, V> = HashMap<K, V, gillian_gil::PrehashedBuildHasher>;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, tolerating poison.
///
/// A panicking symbolic memory can unwind through the engine while some
/// other thread holds (or later takes) these locks; the data they guard —
/// memo tables and the interrupt slot — is valid after any partial
/// mutation, so poison is safe to ignore. Without this, one isolated
/// per-path panic would cascade into every sibling path that shares the
/// solver.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The simplifier tier a solver runs (see [`crate::simplify`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Simplification {
    /// No rewriting at all.
    Off,
    /// Recursive constant folding only (the previous-generation
    /// simplifier the Table 1 baseline stands in for).
    Basic,
    /// The full algebraic/typing/structural simplifier.
    Full,
}

/// Configuration of a [`Solver`].
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// The simplification tier applied before solving (and on every
    /// expression the engine stores into states).
    pub simplification: Simplification,
    /// Memoize satisfiability verdicts keyed on the canonical conjunction.
    pub caching: bool,
    /// Budgets for the satisfiability checker.
    pub sat_budget: SatBudget,
    /// Budgets for the model finder.
    pub model_budget: ModelBudget,
    /// Solve incrementally: freeze the end-of-solve state on the path
    /// condition's newest chain node and answer descendant queries by
    /// propagating only the conjuncts pushed since (see `DESIGN.md` §12).
    pub incremental: bool,
}

impl SolverConfig {
    /// The optimized configuration (Gillian as published).
    pub fn optimized() -> Self {
        SolverConfig {
            simplification: Simplification::Full,
            caching: true,
            sat_budget: SatBudget::default(),
            model_budget: ModelBudget::default(),
            incremental: true,
        }
    }

    /// The baseline configuration standing in for JaVerT 2.0 in Table 1.
    ///
    /// JaVerT 2.0 already simplified expressions; the paper attributes
    /// Gillian-JS's ≈2× speedup to *better* simplifications and *better
    /// caching of results*. The baseline therefore runs the basic
    /// (constant-folding-only) simplifier and drops the solver result
    /// cache.
    pub fn baseline() -> Self {
        SolverConfig {
            simplification: Simplification::Basic,
            caching: false,
            sat_budget: SatBudget::default(),
            model_budget: ModelBudget::default(),
            incremental: false,
        }
    }

    /// Everything off: the ablation point below [`SolverConfig::baseline`]
    /// (no cache *and* no simplification).
    pub fn unoptimized() -> Self {
        SolverConfig {
            simplification: Simplification::Off,
            caching: false,
            sat_budget: SatBudget::default(),
            model_budget: ModelBudget::default(),
            incremental: false,
        }
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig::optimized()
    }
}

/// Cumulative counters, readable at any time (e.g. by benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Satisfiability queries issued.
    pub sat_queries: u64,
    /// Queries answered from the cache.
    pub cache_hits: u64,
    /// Expressions passed through [`Solver::simplify`].
    pub simplifications: u64,
    /// Model searches attempted.
    pub model_searches: u64,
    /// Simplifications answered from the term-id-keyed memo table.
    pub simplify_hits: u64,
    /// Queries that ended in [`SatResult::Unknown`] — budget exhaustion,
    /// deadline expiry, or cancellation. Every such verdict weakens the
    /// bounded guarantee (the engine keeps the branch rather than proving
    /// it feasible), so runs report this count in their diagnostics
    /// instead of letting `Unknown` vanish into `possibly_sat()`.
    pub sat_unknowns: u64,
    /// Queries answered by extending a frozen per-prefix solve context
    /// instead of re-solving the whole conjunction.
    pub incremental_hits: u64,
    /// The part of [`SolverStats::incremental_hits`] answered by the
    /// equality extension: a delta with equalities merged into a copy of
    /// the frozen union-find (or refuted by the residual-disequality
    /// rule) instead of re-solving the residual.
    pub equality_extension_hits: u64,
    /// Search-tree nodes the model searches visited.
    pub model_nodes: u64,
    /// Escalation tiers the model searches skipped because an earlier
    /// tier exhausted the search space.
    pub model_tiers_skipped: u64,
}

/// The solver's handles into the process-global telemetry registry.
/// Fetched once; the hot path never touches the registry lock.
struct Tel {
    sat_micros: &'static Histogram,
    simplify_micros: &'static Histogram,
    sat_queries: &'static Counter,
    sat_cache_hits: &'static Counter,
    sat_unknowns: &'static Counter,
    sat_incremental_hits: &'static Counter,
    sat_reuse_unsat_prefix: &'static Counter,
    sat_reuse_fast: &'static Counter,
    sat_reuse_equalities: &'static Counter,
    sat_reuse_seeded_full: &'static Counter,
    sat_prefix_depth: &'static Histogram,
    model_searches: &'static Counter,
    model_search_failures: &'static Counter,
    model_nodes: &'static Counter,
    model_tiers_skipped: &'static Counter,
}

fn tel() -> &'static Tel {
    static TEL: OnceLock<Tel> = OnceLock::new();
    TEL.get_or_init(|| Tel {
        sat_micros: registry().histogram(names::SAT_MICROS),
        simplify_micros: registry().histogram(names::SIMPLIFY_MICROS),
        sat_queries: registry().counter(names::SAT_QUERIES),
        sat_cache_hits: registry().counter(names::SAT_CACHE_HITS),
        sat_unknowns: registry().counter(names::SAT_UNKNOWNS),
        sat_incremental_hits: registry().counter(names::SAT_INCREMENTAL_HITS),
        sat_reuse_unsat_prefix: registry().counter(names::SAT_REUSE_UNSAT_PREFIX),
        sat_reuse_fast: registry().counter(names::SAT_REUSE_FAST),
        sat_reuse_equalities: registry().counter(names::SAT_REUSE_EQUALITIES),
        sat_reuse_seeded_full: registry().counter(names::SAT_REUSE_SEEDED_FULL),
        sat_prefix_depth: registry().histogram(names::SAT_PREFIX_DEPTH),
        model_searches: registry().counter(names::MODEL_SEARCHES),
        model_search_failures: registry().counter(names::MODEL_SEARCH_FAILURES),
        model_nodes: registry().counter(names::MODEL_NODES),
        model_tiers_skipped: registry().counter(names::MODEL_TIERS_SKIPPED),
    })
}

/// Number of lock shards in the SAT result cache. Sixteen keeps lock
/// contention negligible for the worker counts the parallel explorer uses
/// while costing nothing in the single-threaded case.
const CACHE_SHARDS: usize = 16;

/// A sharded, thread-safe memo table from canonicalized conjunct sets to
/// satisfiability verdicts, each kept with the solve context its filling
/// solve froze (if any), so a chain that reaches the same conjunct set
/// along another path can still extend that context.
///
/// Keys come from [`PathCondition::cache_key`]: the sorted, deduplicated
/// **intern ids** of the conjunct set, with a precomputed hash — so two
/// sibling paths that accumulated the same constraints in different
/// orders (common under the parallel explorer, where subtree exploration
/// order is nondeterministic) still share one cache entry, and probing
/// never re-hashes whole expression trees. Sharding by the precomputed
/// hash lets concurrent workers probe and fill the cache without
/// serializing on a single lock.
#[derive(Debug, Default)]
struct SatCache {
    shards: [Mutex<PrehashedMap<PcKey, CacheEntry>>; CACHE_SHARDS],
}

/// A cached verdict and the context frozen by the solve that decided it.
type CacheEntry = (SatResult, Option<Arc<SolveCtx>>);

impl SatCache {
    fn shard(&self, key: &PcKey) -> &Mutex<PrehashedMap<PcKey, CacheEntry>> {
        &self.shards[(key.precomputed_hash() as usize) % CACHE_SHARDS]
    }

    fn get(&self, key: &PcKey) -> Option<SatResult> {
        lock_unpoisoned(self.shard(key)).get(key).map(|e| e.0)
    }

    fn ctx(&self, key: &PcKey) -> Option<Arc<SolveCtx>> {
        lock_unpoisoned(self.shard(key)).get(key)?.1.clone()
    }

    fn insert(&self, key: PcKey, result: SatResult, ctx: Option<Arc<SolveCtx>>) {
        lock_unpoisoned(self.shard(&key)).insert(key, (result, ctx));
    }
}

/// A sharded memo table for the full simplifier, keyed **exactly** on
/// `(typing environment, expression)`. The result of a full
/// simplification depends on the path condition only through the typing
/// environment it induces ([`PcEnv`], memoized on the condition itself),
/// so entries survive path-condition growth that adds no new type facts —
/// the common case along a path — and are shared across branches with
/// different conditions but equal typing. Both key components compare by
/// full content/identity, never by hash alone: `PcEnv` equality checks
/// the sorted contents and `Expr` equality compares interned children by
/// pointer, so a hit is guaranteed to be the same rewrite under the same
/// environment. The `Expr` key also keeps its interned subterms alive, so
/// re-evaluating the same program expression later reuses the same nodes
/// and hits this memo instead of re-simplifying.
#[derive(Debug, Default)]
struct SimplifyCache {
    shards: [Mutex<FxHashMap<SimpKey, Expr>>; CACHE_SHARDS],
}

/// The exact identity of one simplifier query. Hashing is O(1) in the
/// expression depth: the environment hash is precomputed and the
/// expression hashes shallowly through its interned children's cached
/// hashes.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SimpKey {
    env: Arc<PcEnv>,
    expr: Expr,
}

impl std::hash::Hash for SimpKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.env.fingerprint());
        self.expr.hash(state);
    }
}

impl SimplifyCache {
    fn shard(&self, key: &SimpKey) -> &Mutex<FxHashMap<SimpKey, Expr>> {
        use std::hash::{Hash, Hasher};
        let mut h = gillian_gil::hashing::FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % CACHE_SHARDS]
    }

    fn get(&self, key: &SimpKey) -> Option<Expr> {
        lock_unpoisoned(self.shard(key)).get(key).cloned()
    }

    fn insert(&self, key: SimpKey, result: Expr) {
        lock_unpoisoned(self.shard(&key)).insert(key, result);
    }
}

/// A satisfiability and simplification oracle over path conditions.
///
/// Interior-mutable **and thread-safe**: `&Solver` is threaded through
/// symbolic memories and the interpreter, and one solver (behind an
/// `Arc`) is shared by every worker of the parallel explorer — the result
/// cache uses sharded locks and the statistics are atomics, so concurrent
/// paths share each other's SAT verdicts.
#[derive(Debug, Default)]
pub struct Solver {
    config: SolverConfig,
    cache: SatCache,
    simplify_cache: SimplifyCache,
    /// The run-level interrupt installed by the exploration engine (see
    /// [`Solver::set_interrupt`]). One exploration at a time per solver:
    /// installing a new interrupt replaces the previous one.
    interrupt: Mutex<Interrupt>,
    /// The run-level event journal installed by the exploration engine
    /// (see [`Solver::set_journal`]); same lifecycle as the interrupt.
    journal: Mutex<Journal>,
    /// Fast-path mirror of `journal.is_enabled()`, so untraced queries
    /// pay one relaxed load instead of a lock.
    journal_on: AtomicBool,
    /// The fault-injection probe installed by the exploration layer's
    /// harness (see [`Solver::set_fault_probe`]); same one-run-at-a-time
    /// lifecycle as the interrupt and journal.
    fault_probe: Mutex<FaultProbeSlot>,
    /// Fast-path mirror of `fault_probe.is_some()`: production runs pay
    /// one relaxed load, not a lock, per query.
    fault_on: AtomicBool,
    sat_queries: AtomicU64,
    cache_hits: AtomicU64,
    simplifications: AtomicU64,
    model_searches: AtomicU64,
    sat_unknowns: AtomicU64,
    simplify_hits: AtomicU64,
    incremental_hits: AtomicU64,
    equality_extension_hits: AtomicU64,
    model_nodes: AtomicU64,
    model_tiers_skipped: AtomicU64,
}

/// Compile-time guarantee that the solver can be shared across the
/// parallel explorer's workers.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Solver>();
};

impl Solver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Solver {
            config,
            ..Default::default()
        }
    }

    /// Creates a solver with the optimized configuration.
    pub fn optimized() -> Self {
        Solver::new(SolverConfig::optimized())
    }

    /// Creates a solver with the baseline configuration.
    pub fn baseline() -> Self {
        Solver::new(SolverConfig::baseline())
    }

    /// Creates a solver with cache and simplification both disabled.
    pub fn unoptimized() -> Self {
        Solver::new(SolverConfig::unoptimized())
    }

    /// The active configuration.
    pub fn config(&self) -> SolverConfig {
        self.config
    }

    /// Current statistics snapshot (approximate under concurrency: the
    /// counters are individually exact but not read atomically together).
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            sat_queries: self.sat_queries.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            simplifications: self.simplifications.load(Ordering::Relaxed),
            model_searches: self.model_searches.load(Ordering::Relaxed),
            sat_unknowns: self.sat_unknowns.load(Ordering::Relaxed),
            simplify_hits: self.simplify_hits.load(Ordering::Relaxed),
            incremental_hits: self.incremental_hits.load(Ordering::Relaxed),
            equality_extension_hits: self.equality_extension_hits.load(Ordering::Relaxed),
            model_nodes: self.model_nodes.load(Ordering::Relaxed),
            model_tiers_skipped: self.model_tiers_skipped.load(Ordering::Relaxed),
        }
    }

    /// Installs a run-level interrupt: subsequent satisfiability queries
    /// observe its deadline (tightened against any per-query
    /// `sat_budget.deadline`) and its cancellation token, answering
    /// [`SatResult::Unknown`] once either fires. The exploration engine
    /// installs the run's deadline/token here before stepping and clears
    /// it with [`Solver::clear_interrupt`] when the run ends; a solver
    /// serves one exploration at a time.
    pub fn set_interrupt(&self, interrupt: Interrupt) {
        *lock_unpoisoned(&self.interrupt) = interrupt;
    }

    /// Removes any installed interrupt (idempotent).
    pub fn clear_interrupt(&self) {
        *lock_unpoisoned(&self.interrupt) = Interrupt::none();
    }

    /// Installs the run-level event journal: while installed (and
    /// enabled), every satisfiability query emits an
    /// [`Event::SatQuery`] with its latency and cache-hit attribution.
    /// The exploration engine installs the journal alongside the
    /// interrupt and clears it with [`Solver::clear_journal`]; a solver
    /// serves one exploration at a time.
    pub fn set_journal(&self, journal: Journal) {
        self.journal_on
            .store(journal.is_enabled(), Ordering::Release);
        *lock_unpoisoned(&self.journal) = journal;
    }

    /// Removes any installed journal (idempotent).
    pub fn clear_journal(&self) {
        self.journal_on.store(false, Ordering::Release);
        *lock_unpoisoned(&self.journal) = Journal::disabled();
    }

    /// Installs a fault-injection probe: while installed, every
    /// satisfiability query (after the trivially-false fast path) consults
    /// it and honours the returned [`SatFault`], if any. Only the
    /// exploration layer's deterministic fault harness installs one;
    /// production runs never pay more than one relaxed atomic load. Same
    /// lifecycle as [`Solver::set_interrupt`]: one run at a time, cleared
    /// with [`Solver::clear_fault_probe`].
    pub fn set_fault_probe(&self, probe: FaultProbe) {
        lock_unpoisoned(&self.fault_probe).0 = Some(probe);
        self.fault_on.store(true, Ordering::Release);
    }

    /// Removes any installed fault probe (idempotent).
    pub fn clear_fault_probe(&self) {
        self.fault_on.store(false, Ordering::Release);
        lock_unpoisoned(&self.fault_probe).0 = None;
    }

    /// Consults the installed fault probe, if any.
    fn consult_fault(&self) -> Option<SatFault> {
        if !self.fault_on.load(Ordering::Acquire) {
            return None;
        }
        let probe = lock_unpoisoned(&self.fault_probe).0.clone();
        probe.and_then(|p| p())
    }

    /// A handle to the installed journal (disabled when none is).
    pub fn journal(&self) -> Journal {
        lock_unpoisoned(&self.journal).clone()
    }

    /// True when an enabled journal is installed — one relaxed atomic
    /// load, so hot paths can gate event construction on it without
    /// touching the journal lock.
    pub fn journal_enabled(&self) -> bool {
        self.journal_on.load(Ordering::Acquire)
    }

    /// A snapshot of the installed interrupt.
    pub fn interrupt(&self) -> Interrupt {
        lock_unpoisoned(&self.interrupt).clone()
    }

    /// True when the installed interrupt has fired (cancelled or past its
    /// deadline). Long-running memory-model actions should poll this and
    /// bail out cooperatively so the engine can park their path as
    /// truncated instead of hanging the run.
    pub fn interrupted(&self) -> bool {
        lock_unpoisoned(&self.interrupt).interrupted()
    }

    /// Whether the installed interrupt is cancelled, and its deadline,
    /// read in place: the per-query paths need only these two fields, not
    /// a clone of the token.
    fn interrupt_state(&self) -> (bool, Option<Instant>) {
        let interrupt = lock_unpoisoned(&self.interrupt);
        (interrupt.cancel.is_cancelled(), interrupt.deadline)
    }

    /// Simplifies an expression under the typing facts of `pc` (identity
    /// when simplification is disabled).
    ///
    /// Full-tier results are memoized keyed on `(pc cache key, interned
    /// id of e)` — both exact identities, so a hit is guaranteed to be
    /// the same rewrite under the same typing environment. On the hot
    /// path (the interpreter simplifies every stored expression) sibling
    /// branches share most of their path condition and re-simplify the
    /// same guards, so the hit rate is high.
    pub fn simplify(&self, pc: &PathCondition, e: &Expr) -> Expr {
        match self.config.simplification {
            Simplification::Off => return e.clone(),
            Simplification::Basic => {
                self.simplifications.fetch_add(1, Ordering::Relaxed);
                return simplify::simplify_basic(e);
            }
            Simplification::Full => {}
        }
        self.simplifications.fetch_add(1, Ordering::Relaxed);
        let key = SimpKey {
            env: pc.typing_env(),
            expr: e.clone(),
        };
        if self.config.caching {
            if let Some(hit) = self.simplify_cache.get(&key) {
                self.simplify_hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
        }
        // Only memo misses are timed, and only one in
        // [`SIMPLIFY_SAMPLE`] of those: a hit is a hash probe, and even
        // a miss is often cheap enough that two clock reads per miss
        // show up in end-to-end throughput. Uniform sampling keeps the
        // latency histogram's *shape* faithful at a fraction of the
        // cost (same scheme as the interner's lookup probe).
        let timer = TL_SIMPLIFY_SAMPLE.with(|c| {
            let n = c.get().wrapping_add(1);
            c.set(n);
            (n & (SIMPLIFY_SAMPLE - 1) == 0).then(Instant::now)
        });
        // Operator usage pins types: GIL operators are strict, so every
        // subterm of an expression that evaluates must itself evaluate —
        // usage facts from `e` itself are sound for rewriting `e`. (The
        // memo key stays exact: given the environment in the key, the
        // final environment is a function of `e`, which is also in the
        // key.)
        let mut env = key.env.env().clone();
        crate::sat::absorb_usage_types_pub(&mut env, std::slice::from_ref(e));
        let result = simplify::simplify(&env, e);
        if let Some(started) = timer {
            tel()
                .simplify_micros
                .record(started.elapsed().as_micros() as u64);
        }
        if self.config.caching {
            self.simplify_cache.insert(key, result.clone());
        }
        result
    }

    /// Checks satisfiability of a path condition.
    ///
    /// Observes the installed [`Interrupt`]: once cancelled or past the
    /// deadline the query answers [`SatResult::Unknown`] (sound — the
    /// engine keeps unknown branches). Interrupted verdicts are counted in
    /// [`SolverStats::sat_unknowns`] and **never cached**: an `Unknown`
    /// that merely reflects an expired deadline would otherwise poison the
    /// memo table for later, unhurried runs sharing this solver.
    pub fn check_sat(&self, pc: &PathCondition) -> SatResult {
        if pc.is_trivially_false() {
            return SatResult::Unsat;
        }
        self.sat_queries.fetch_add(1, Ordering::Relaxed);
        let t = tel();
        t.sat_queries.incr();
        let key = pc.cache_key();
        // The fault probe sits after the trivially-false fast path (that
        // verdict is definitional, not a solve) and before the cache, so
        // injected latency also covers would-be hits. A forced `Unknown`
        // mirrors an interrupt-driven one: counted, never cached.
        let fault = self.consult_fault();
        if let Some(SatFault::Latency(d)) = fault {
            std::thread::sleep(d);
        }
        // The cache is probed before any clock read: at the hit rates
        // the interpreter sustains (>95%), two clock reads per hit cost
        // more than the probe they would be timing. Hits are counted in
        // `sat_cache_hits` and excluded from the latency histogram, so
        // `sat_micros` is the distribution of *real solves*.
        let (result, cache_hit, micros) = if fault == Some(SatFault::Unknown) {
            self.sat_unknowns.fetch_add(1, Ordering::Relaxed);
            (SatResult::Unknown, false, 0)
        } else {
            match self.probe_sat_cache(&key) {
                Some(hit) => (hit, true, 0),
                None => {
                    let started = Instant::now();
                    let (result, cache_hit) = self.check_sat_inner(pc, &key);
                    let micros = started.elapsed().as_micros() as u64;
                    t.sat_micros.record(micros);
                    (result, cache_hit, micros)
                }
            }
        };
        if cache_hit {
            t.sat_cache_hits.incr();
        }
        if result == SatResult::Unknown {
            t.sat_unknowns.incr();
        }
        if self.journal_on.load(Ordering::Acquire) {
            let journal = self.journal();
            if journal.is_enabled() {
                // Rendering the condition costs a tree walk; only
                // queries slow enough to show up in a report get one.
                let pc_text = if micros >= SLOW_QUERY_RENDER_MICROS {
                    pc.to_string()
                } else {
                    String::new()
                };
                journal.record_shared(Event::SatQuery {
                    key: key.precomputed_hash(),
                    conjuncts: pc.len() as u32,
                    verdict: match result {
                        SatResult::Sat => Verdict::Sat,
                        SatResult::Unsat => Verdict::Unsat,
                        SatResult::Unknown => Verdict::Unknown,
                    },
                    micros,
                    cache_hit,
                    pc: pc_text,
                });
            }
        }
        result
    }

    /// Probes the sat result cache alone — no solving, no clock.
    /// Returns `None` when caching is off, the entry is absent, or the
    /// solver is cancelled: a cancelled solver must answer `Unknown`
    /// even for cached keys (prompt-shutdown semantics), and the full
    /// path handles that.
    fn probe_sat_cache(&self, key: &PcKey) -> Option<SatResult> {
        if !self.config.caching || self.interrupt_state().0 {
            return None;
        }
        let hit = self.cache.get(key)?;
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// The uninstrumented satisfiability check; returns the verdict and
    /// whether the result cache answered.
    ///
    /// On an exact-cache miss the incremental path extends the deepest
    /// solved ancestor state, then a monolithic solve runs. Decided
    /// verdicts flow back into the cache and the chain; `Unknown` into
    /// neither.
    fn check_sat_inner(&self, pc: &PathCondition, key: &PcKey) -> (SatResult, bool) {
        let (cancelled, deadline) = self.interrupt_state();
        if cancelled {
            self.sat_unknowns.fetch_add(1, Ordering::Relaxed);
            return (SatResult::Unknown, false);
        }
        if self.config.caching {
            if let Some(hit) = self.cache.get(key) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return (hit, true);
            }
        }
        let mut budget = self.config.sat_budget;
        budget.deadline = match (budget.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // The monolithic checker sees conjuncts in *structural* order: id
        // order is mint-order and would leak the exploration schedule
        // into verdict-affecting heuristics (case-split order etc.).
        let mut capture: Option<CapturedState> = None;
        let result = if self.config.incremental {
            match self.check_sat_incremental(pc, budget, &mut capture) {
                Some(verdict) => verdict,
                None => check_conjunction_capturing(&pc.sorted_conjuncts(), budget, &mut capture),
            }
        } else {
            check_conjunction(&pc.sorted_conjuncts(), budget)
        };
        if result == SatResult::Unknown {
            self.sat_unknowns.fetch_add(1, Ordering::Relaxed);
            return (result, false);
        }
        // Freeze only complete results: an Unsat proof (valid for every
        // descendant), or a clean Sat with its captured state. A
        // stateless Sat (decided through a case split) is *not* frozen,
        // so descendants keep walking to a deeper usable ancestor instead
        // of stopping at a dead end.
        let ctx = match (result, capture) {
            (SatResult::Unsat, _) if self.config.incremental => Some(SolveCtx {
                verdict: result,
                state: None,
            }),
            (SatResult::Sat, Some(state)) => Some(SolveCtx {
                verdict: result,
                state: Some(state),
            }),
            _ => None,
        }
        .map(Arc::new);
        if let Some(ctx) = &ctx {
            pc.freeze_ctx(ctx.clone());
        }
        if self.config.caching {
            self.cache.insert(key.clone(), result, ctx);
        }
        (result, false)
    }

    /// Attempts to answer a query by extending the deepest already-solved
    /// ancestor of `pc`. Returns `None` when no usable solved context
    /// exists, reuse does not apply (the extension grows the typing
    /// environment), or the seeded solve ends `Unknown` — in every such
    /// case the caller re-solves monolithically.
    fn check_sat_incremental(
        &self,
        pc: &PathCondition,
        budget: SatBudget,
        capture: &mut Option<CapturedState>,
    ) -> Option<SatResult> {
        // An already-expired deadline defers to the monolithic path: the
        // checker answers `Unknown` at its first poll (or `Unsat` on a
        // typing conflict), and prefix reuse must not outrun the clock —
        // verdicts would then depend on what happened to be frozen.
        if budget.deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        // Ancestors reached through exact-cache hits carry no context of
        // their own; the cache entry of their conjunct set holds the one
        // its filling solve froze.
        let (ctx, prefix_len, delta) = pc.solved_prefix(|key| {
            if self.config.caching {
                self.cache.ctx(key)
            } else {
                None
            }
        })?;
        // Every extension of an unsatisfiable prefix is unsatisfiable; an
        // empty delta (reachable with caching off) is the prefix itself.
        if ctx.verdict == SatResult::Unsat || delta.is_empty() {
            self.note_incremental_hit(prefix_len, tel().sat_reuse_unsat_prefix);
            return Some(ctx.verdict);
        }
        let seed = ctx.state.as_ref()?;
        let (verdict, layer) = check_extension(seed, &delta, budget, capture)?;
        if verdict == SatResult::Unknown {
            return None;
        }
        let t = tel();
        let counter = match layer {
            Extension::Fast => t.sat_reuse_fast,
            Extension::Equalities => {
                self.equality_extension_hits.fetch_add(1, Ordering::Relaxed);
                t.sat_reuse_equalities
            }
            Extension::SeededFull => t.sat_reuse_seeded_full,
        };
        self.note_incremental_hit(prefix_len, counter);
        Some(verdict)
    }

    /// Counts an incremental answer, in the total and in the counter of
    /// the layer that gave it.
    fn note_incremental_hit(&self, prefix_len: usize, layer: &Counter) {
        self.incremental_hits.fetch_add(1, Ordering::Relaxed);
        let t = tel();
        t.sat_incremental_hits.incr();
        layer.incr();
        t.sat_prefix_depth.record(prefix_len as u64);
    }

    /// Checks whether `pc ∧ extra` may be satisfiable (the branching test
    /// of the symbolic `assume` action, Def. 2.6).
    pub fn sat_with(&self, pc: &PathCondition, extra: &Expr) -> SatResult {
        self.sat_assume(pc, extra).0
    }

    /// Like [`Solver::sat_with`], but also returns the extended condition
    /// that was actually solved, so the engine can *adopt* it as the new
    /// path condition. Re-pushing the same guard onto the original
    /// condition would mint a fresh chain node with an empty context
    /// slot, stranding the solve context this query just froze on a chain
    /// nobody keeps.
    pub fn sat_assume(&self, pc: &PathCondition, extra: &Expr) -> (SatResult, PathCondition) {
        let mut pc2 = pc.clone();
        pc2.push(self.simplify(pc, extra));
        let verdict = self.check_sat(&pc2);
        (verdict, pc2)
    }

    /// True when `pc` entails `e`: `pc ∧ ¬e` is unsatisfiable.
    pub fn entails(&self, pc: &PathCondition, e: &Expr) -> bool {
        let neg = self.simplify(pc, &e.clone().not());
        let mut pc2 = pc.clone();
        pc2.push(neg);
        self.check_sat(&pc2) == SatResult::Unsat
    }

    /// Searches for a verified model of the path condition.
    pub fn model(&self, pc: &PathCondition) -> Option<Model> {
        if pc.is_trivially_false() {
            return None;
        }
        self.search_model(pc, &[self.config.model_budget])
            .map(|(m, _)| m)
    }

    /// Deep-budget model search for replay: call after [`Solver::model`]
    /// fails on a condition that should be satisfiable. Starts at 8×
    /// the configured node budget and escalates twice more
    /// ([`crate::model::find_model_escalating`]), so the differential
    /// oracle's witness extraction is total modulo (a much larger) budget.
    pub fn model_for_replay(&self, pc: &PathCondition) -> Option<Model> {
        if pc.is_trivially_false() {
            return None;
        }
        self.search_model(pc, &self.replay_tiers()).map(|(m, _)| m)
    }

    /// A witness of the path condition for reporting or replay: the
    /// configured budget, then [`Solver::model_for_replay`]'s escalated
    /// tiers, in one search. The flag is `true` when an escalated tier
    /// found the model.
    ///
    /// The answer is that of [`Solver::model`] falling back to
    /// [`Solver::model_for_replay`], but the search is prepared once, and
    /// when the configured budget covers the whole search space without a
    /// model the escalated tiers, which would search the same tree, are
    /// skipped.
    pub fn witness(&self, pc: &PathCondition) -> Option<(Model, bool)> {
        if pc.is_trivially_false() {
            return None;
        }
        let [second, third, fourth] = self.replay_tiers();
        self.search_model(pc, &[self.config.model_budget, second, third, fourth])
            .map(|(m, tier)| (m, tier > 0))
    }

    /// The budget tiers of [`Solver::model_for_replay`]: 8× the configured
    /// node budget and 4× its candidates, escalated twice more.
    fn replay_tiers(&self) -> [ModelBudget; 3] {
        let base = self.config.model_budget;
        escalation_tiers(ModelBudget {
            max_nodes: base.max_nodes.saturating_mul(8),
            candidates_per_var: base.candidates_per_var.saturating_mul(4),
        })
    }

    /// One counted model search over the budget `tiers`; the model comes
    /// with the index of the tier that found it.
    fn search_model(&self, pc: &PathCondition, tiers: &[ModelBudget]) -> Option<(Model, usize)> {
        let mut work = SearchWork::default();
        let model = find_model_tiers(&pc.conjuncts(), tiers, &mut work);
        self.model_searches.fetch_add(1, Ordering::Relaxed);
        self.model_nodes.fetch_add(work.nodes, Ordering::Relaxed);
        self.model_tiers_skipped
            .fetch_add(work.tiers_skipped, Ordering::Relaxed);
        let t = tel();
        t.model_searches.incr();
        t.model_nodes.add(work.nodes);
        t.model_tiers_skipped.add(work.tiers_skipped);
        if model.is_none() {
            t.model_search_failures.incr();
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_gil::LVar;

    fn x(i: u64) -> Expr {
        Expr::lvar(LVar(i))
    }

    #[test]
    fn sat_and_entailment() {
        let s = Solver::optimized();
        let pc: PathCondition = [Expr::int(0).le(x(0)), x(0).lt(Expr::int(10))]
            .into_iter()
            .collect();
        assert_eq!(s.check_sat(&pc), SatResult::Sat);
        assert!(s.entails(&pc, &x(0).lt(Expr::int(10))));
        assert!(!s.entails(&pc, &x(0).lt(Expr::int(5))));
        assert_eq!(s.sat_with(&pc, &x(0).eq(Expr::int(3))), SatResult::Sat);
        assert_eq!(s.sat_with(&pc, &x(0).eq(Expr::int(11))), SatResult::Unsat);
    }

    #[test]
    fn cache_hits_are_counted() {
        let s = Solver::optimized();
        let pc: PathCondition = [x(0).eq(Expr::int(1))].into_iter().collect();
        let _ = s.check_sat(&pc);
        let _ = s.check_sat(&pc);
        let stats = s.stats();
        assert_eq!(stats.sat_queries, 2);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn baseline_disables_cache_but_keeps_simplification() {
        let s = Solver::baseline();
        let pc: PathCondition = [x(0).eq(Expr::int(1))].into_iter().collect();
        let _ = s.check_sat(&pc);
        let _ = s.check_sat(&pc);
        assert_eq!(s.stats().cache_hits, 0);
        let e = Expr::int(1).add(Expr::int(1));
        assert_eq!(s.simplify(&pc, &e), Expr::int(2), "baseline simplifies");
    }

    #[test]
    fn unoptimized_disables_both() {
        let s = Solver::unoptimized();
        let pc = PathCondition::new();
        let e = Expr::int(1).add(Expr::int(1));
        assert_eq!(s.simplify(&pc, &e), e, "unoptimized must not simplify");
        let _ = s.check_sat(&pc);
        let _ = s.check_sat(&pc);
        assert_eq!(s.stats().cache_hits, 0);
    }

    #[test]
    fn model_round_trip() {
        let s = Solver::optimized();
        let pc: PathCondition = [x(0).add(Expr::int(2)).eq(Expr::int(7))]
            .into_iter()
            .collect();
        let m = s.model(&pc).unwrap();
        assert_eq!(m.get(LVar(0)), Some(&gillian_gil::Value::Int(5)));
    }

    #[test]
    fn model_search_work_is_counted() {
        let s = Solver::optimized();
        let pc: PathCondition = [x(0).add(Expr::int(2)).eq(Expr::int(7))]
            .into_iter()
            .collect();
        assert!(s.model(&pc).is_some());
        let found = s.stats();
        assert_eq!(found.model_searches, 1);
        assert!(found.model_nodes > 0);
        assert_eq!(found.model_tiers_skipped, 0);
        // A union-find conflict fails before any search: both escalation
        // tiers after the first are skipped.
        let conflict: PathCondition = [x(0).eq(Expr::int(1)), x(0).eq(Expr::int(2))]
            .into_iter()
            .collect();
        assert!(s.model_for_replay(&conflict).is_none());
        let after = s.stats();
        assert_eq!(after.model_searches, 2);
        assert_eq!(after.model_nodes, found.model_nodes);
        assert_eq!(after.model_tiers_skipped, 2);
    }

    #[test]
    fn cancellation_yields_unknown_and_is_counted() {
        use crate::interrupt::{CancelToken, Interrupt};
        let s = Solver::optimized();
        let pc: PathCondition = [Expr::int(0).le(x(0))].into_iter().collect();
        let token = CancelToken::new();
        s.set_interrupt(Interrupt::new(None, token.clone()));
        assert_eq!(s.check_sat(&pc), SatResult::Sat);
        token.cancel();
        assert_eq!(s.check_sat(&pc), SatResult::Unknown);
        assert_eq!(s.stats().sat_unknowns, 1);
        s.clear_interrupt();
        assert_eq!(
            s.check_sat(&pc),
            SatResult::Sat,
            "clearing re-arms the solver"
        );
    }

    #[test]
    fn expired_deadline_yields_unknown_without_caching_it() {
        use crate::interrupt::{CancelToken, Interrupt};
        use std::time::Instant;
        let s = Solver::optimized();
        // A query the checker cannot answer trivially (needs closure work).
        let pc: PathCondition = [x(0).add(x(1)).eq(Expr::int(7)), x(1).eq(Expr::int(2))]
            .into_iter()
            .collect();
        s.set_interrupt(Interrupt::new(Some(Instant::now()), CancelToken::new()));
        assert_eq!(s.check_sat(&pc), SatResult::Unknown);
        assert!(s.stats().sat_unknowns >= 1);
        s.clear_interrupt();
        // The Unknown must not have been cached: the same key now decides.
        let verdict = s.check_sat(&pc);
        assert_eq!(
            verdict,
            SatResult::Sat,
            "deadline Unknown must not poison the cache"
        );
    }

    #[test]
    fn trivially_false_short_circuits() {
        let s = Solver::optimized();
        let mut pc = PathCondition::new();
        pc.push(Expr::ff());
        assert_eq!(s.check_sat(&pc), SatResult::Unsat);
        assert_eq!(s.stats().sat_queries, 0);
        assert!(s.model(&pc).is_none());
    }

    #[test]
    fn incremental_reuse_fires_and_freezes_ctx() {
        let s = Solver::optimized();
        let mut pc = PathCondition::new();
        pc.push(Expr::int(0).le(x(0)));
        assert_eq!(s.check_sat(&pc), SatResult::Sat);
        assert!(pc.has_solve_ctx(), "clean Sat must freeze its context");
        pc.push(x(0).lt(Expr::int(10)));
        assert!(!pc.has_solve_ctx(), "a push mints a fresh, unsolved node");
        assert_eq!(s.check_sat(&pc), SatResult::Sat);
        let stats = s.stats();
        assert!(
            stats.incremental_hits >= 1,
            "the extension must reuse the frozen prefix: {stats:?}"
        );
        assert!(pc.has_solve_ctx(), "the extension's Sat freezes in turn");
    }

    #[test]
    fn unsat_prefix_decides_descendants() {
        let s = Solver::optimized();
        let mut pc = PathCondition::new();
        pc.push(x(0).eq(Expr::int(1)));
        pc.push(x(0).eq(Expr::int(2)));
        assert_eq!(s.check_sat(&pc), SatResult::Unsat);
        assert!(pc.has_solve_ctx(), "Unsat freezes a stateless context");
        pc.push(Expr::int(0).le(x(1)));
        assert_eq!(s.check_sat(&pc), SatResult::Unsat);
        assert!(
            s.stats().incremental_hits >= 1,
            "an unsat ancestor must answer without re-solving"
        );
    }

    #[test]
    fn sat_assume_returns_the_adopted_condition() {
        let s = Solver::optimized();
        let pc: PathCondition = [Expr::int(0).le(x(0))].into_iter().collect();
        assert_eq!(s.check_sat(&pc), SatResult::Sat);
        let (verdict, pc2) = s.sat_assume(&pc, &x(0).lt(Expr::int(10)));
        assert_eq!(verdict, SatResult::Sat);
        assert_eq!(pc2.len(), 2);
        assert!(
            pc2.has_solve_ctx(),
            "the returned condition carries the context this query froze"
        );
    }

    #[test]
    fn unknown_is_never_frozen() {
        use crate::interrupt::{CancelToken, Interrupt};
        use std::time::Instant;
        let s = Solver::optimized();
        let mut pc = PathCondition::new();
        pc.push(x(0).add(x(1)).eq(Expr::int(7)));
        pc.push(x(1).eq(Expr::int(2)));
        s.set_interrupt(Interrupt::new(Some(Instant::now()), CancelToken::new()));
        assert_eq!(s.check_sat(&pc), SatResult::Unknown);
        assert!(
            !pc.has_solve_ctx(),
            "an interrupted solve must not freeze partial state"
        );
        s.clear_interrupt();
        assert_eq!(s.check_sat(&pc), SatResult::Sat);
        assert!(pc.has_solve_ctx(), "the unhurried re-solve freezes");
    }
}
