//! Hash-consed expression terms.
//!
//! Every recursive position of [`Expr`](crate::Expr) holds a [`Term`]: an
//! `Arc`-backed node minted through a global, sharded, thread-safe
//! interner. Structurally equal subterms are **pointer-equal**, so
//!
//! - `clone()` is a refcount bump (branch snapshots share structure),
//! - `Eq` is a pointer comparison (the interner guarantees two live terms
//!   with equal bodies are the same allocation),
//! - `Hash` writes a cached 64-bit structural hash (computed once at
//!   mint time), and
//! - caches can key on the stable [`Term::id`] instead of re-hashing
//!   whole trees.
//!
//! Ordering stays **structural** (with a pointer-equality shortcut):
//! intern ids depend on the order terms happen to be minted, which varies
//! across exploration schedules, and the engine's determinism guarantees
//! (DFS/BFS/parallel equivalence) rely on `Ord` being schedule-independent.
//! Ids are safe as *cache keys* — within a process a live id names exactly
//! one structure — but never as an ordering.
//!
//! The interner holds [`Weak`] references: dropping the last `Term` for a
//! node frees it; dead entries are swept opportunistically.

use crate::expr::Expr;
use crate::hashing::{FxHasher, PrehashedBuildHasher};
use gillian_telemetry::{names, registry, Counter, Histogram};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Number of interner shards (locks). A power of two.
const SHARDS: usize = 64;

/// Sweep a shard of dead weak entries after this many inserts into it.
const SWEEP_EVERY: u64 = 1024;

/// One in this many intern lookups is wall-clock timed into the
/// `intern.lookup_nanos` histogram. A power of two. Sampling keeps the
/// cost of the always-on histogram to a thread-local counter bump on
/// the other 1023 lookups (see [`Term::new`] for why the counter, and
/// not the hash, drives the sample).
const LOOKUP_SAMPLE: u64 = 1024;

/// Slots in the per-thread direct-mapped cache fronting the interner.
/// A power of two.
const TL_CACHE_SIZE: usize = 1 << 13;

/// The interned node: a stable id, a cached structural hash, and the
/// one-level expression body (whose recursive positions are again
/// [`Term`]s).
struct TermData {
    id: u64,
    hash: u64,
    expr: Expr,
}

impl Drop for TermData {
    fn drop(&mut self) {
        stats().live.sub(1);
    }
}

/// A hash-consed, reference-counted expression node.
///
/// Minted only through the global interner ([`Term::new`] /
/// `From<Expr>`), which guarantees that structurally equal terms are
/// pointer-equal for as long as both are alive. `Term` dereferences to
/// [`Expr`], so read sites pattern-match through it transparently.
#[derive(Clone)]
pub struct Term(Arc<TermData>);

impl Term {
    /// Interns an expression, returning the canonical shared node.
    ///
    /// If an equal term is live, this is a refcount bump on the existing
    /// allocation (an interner *hit*); otherwise a new node is minted.
    pub fn new(expr: Expr) -> Term {
        // Fast path: the calling thread recently interned this exact
        // body. No locks, no `Weak` upgrades — one hash, one slot probe,
        // one shallow compare. The slot always holds a globally interned
        // term, so pointer-equality across threads is preserved.
        let hash = structural_hash(&expr);
        // One lookup in `LOOKUP_SAMPLE` is wall-clock timed into the
        // telemetry histogram, chosen by a per-call thread-local
        // counter; the unsampled path then tail-calls the lookup with no
        // live timer state. The counter is deliberate: keying the sample
        // off the structural hash would be cheaper still, but intern
        // traffic is heavy-tailed — a deterministic per-value predicate
        // that happens to select an ultra-hot expression times *every*
        // occurrence of it, and measured runs oversampled by ~30×.
        let sampled = TL_SAMPLE.with(|c| {
            let n = c.get().wrapping_add(1);
            c.set(n);
            n & (LOOKUP_SAMPLE - 1) == 0
        });
        if !sampled {
            return Self::with_hash(expr, hash);
        }
        Self::new_timed(expr, hash)
    }

    /// The sampled slow path: the lookup bracketed by a wall clock.
    #[cold]
    #[inline(never)]
    fn new_timed(expr: Expr, hash: u64) -> Term {
        let start = std::time::Instant::now();
        let t = Self::with_hash(expr, hash);
        stats()
            .lookup_nanos
            .record(start.elapsed().as_nanos() as u64);
        t
    }

    fn with_hash(expr: Expr, hash: u64) -> Term {
        let slot = (hash as usize) & (TL_CACHE_SIZE - 1);
        let cached = TL_TERMS.with(|c| {
            let cache = c.borrow();
            match cache.get(slot).and_then(Option::as_ref) {
                Some(t) if t.0.hash == hash && t.0.expr == expr => Some(t.clone()),
                _ => None,
            }
        });
        if let Some(t) = cached {
            stats().hits.incr();
            TL_HITS.with(|c| c.set(c.get() + 1));
            return t;
        }
        let t = interner().intern(expr, hash);
        TL_TERMS.with(|c| {
            let mut cache = c.borrow_mut();
            if cache.is_empty() {
                cache.resize(TL_CACHE_SIZE, None);
            }
            cache[slot] = Some(t.clone());
        });
        t
    }

    /// The one-level expression body of this node.
    pub fn expr(&self) -> &Expr {
        &self.0.expr
    }

    /// The stable intern id: within a process, a live id names exactly
    /// one structure, so caches may key on it. Ids are minted in
    /// exploration order — never use them for *ordering*.
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// The cached structural hash.
    pub fn cached_hash(&self) -> u64 {
        self.0.hash
    }

    /// Pointer identity — equivalent to `==` but states the intent.
    pub fn same(&self, other: &Term) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for Term {
    type Target = Expr;
    fn deref(&self) -> &Expr {
        &self.0.expr
    }
}

impl AsRef<Expr> for Term {
    fn as_ref(&self) -> &Expr {
        &self.0.expr
    }
}

impl From<Expr> for Term {
    fn from(e: Expr) -> Term {
        Term::new(e)
    }
}

impl From<&Term> for Term {
    fn from(t: &Term) -> Term {
        t.clone()
    }
}

impl PartialEq for Term {
    /// Pointer equality — sound because all terms are interned: two live
    /// terms with structurally equal bodies share one allocation.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}
impl Eq for Term {}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Term {
    /// Structural order with a pointer-equality shortcut. Deliberately
    /// NOT id order: ids depend on mint order, which varies across
    /// exploration schedules, and deterministic results require a
    /// schedule-independent order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.expr.cmp(&other.0.expr)
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.expr.fmt(f)
    }
}
impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.expr.fmt(f)
    }
}

/// A shared, immutable expression sequence (the n-ary positions of
/// [`Expr::List`], [`Expr::StrCat`], [`Expr::LstCat`]). Cloning is a
/// refcount bump.
#[derive(Clone)]
pub struct ExprList(Arc<[Expr]>);

impl ExprList {
    /// The empty sequence.
    pub fn empty() -> ExprList {
        ExprList(Arc::from(Vec::new()))
    }

    /// Copies the elements into a fresh vector.
    pub fn to_vec(&self) -> Vec<Expr> {
        self.0.to_vec()
    }
}

impl Deref for ExprList {
    type Target = [Expr];
    fn deref(&self) -> &[Expr] {
        &self.0
    }
}

impl AsRef<[Expr]> for ExprList {
    fn as_ref(&self) -> &[Expr] {
        &self.0
    }
}

impl From<Vec<Expr>> for ExprList {
    fn from(v: Vec<Expr>) -> ExprList {
        ExprList(Arc::from(v))
    }
}
impl From<&[Expr]> for ExprList {
    fn from(v: &[Expr]) -> ExprList {
        ExprList(Arc::from(v.to_vec()))
    }
}
impl<const N: usize> From<[Expr; N]> for ExprList {
    fn from(v: [Expr; N]) -> ExprList {
        ExprList(Arc::from(v.to_vec()))
    }
}
impl FromIterator<Expr> for ExprList {
    fn from_iter<I: IntoIterator<Item = Expr>>(iter: I) -> ExprList {
        ExprList(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a ExprList {
    type Item = &'a Expr;
    type IntoIter = std::slice::Iter<'a, Expr>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for ExprList {
    type Item = Expr;
    type IntoIter = std::vec::IntoIter<Expr>;
    fn into_iter(self) -> Self::IntoIter {
        // Elements can't be moved out of a shared `Arc<[_]>`; cloning is
        // cheap (each element's children are refcounted terms). Clippy's
        // `iter().cloned()` suggestion would borrow from the consumed
        // `self`, so the owned round-trip stays.
        #[allow(clippy::unnecessary_to_owned)]
        self.0.to_vec().into_iter()
    }
}

impl PartialEq for ExprList {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for ExprList {}
impl PartialOrd for ExprList {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ExprList {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}
impl Hash for ExprList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}
impl fmt::Debug for ExprList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

// ---------------------------------------------------------------------
// The global interner
// ---------------------------------------------------------------------

struct Shard {
    /// Hash → candidate nodes. Buckets hold weak refs so the interner
    /// never keeps terms alive.
    buckets: HashMap<u64, Vec<Weak<TermData>>, PrehashedBuildHasher>,
    /// Inserts since the last dead-entry sweep of this shard.
    inserts: u64,
}

struct Interner {
    shards: Vec<Mutex<Shard>>,
    next_id: AtomicU64,
}

/// Interner counters, read via [`InternStats::snapshot`]. These live in
/// the telemetry registry (under the `intern.*` names) so reports and
/// exporters see them without a dependency on this crate's internals.
struct Counters {
    mints: &'static Counter,
    hits: &'static Counter,
    live: &'static Counter,
    lookup_nanos: &'static Histogram,
}

fn stats() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| Counters {
        mints: registry().counter(names::INTERN_MINTS),
        hits: registry().counter(names::INTERN_HITS),
        live: registry().counter(names::INTERN_LIVE),
        lookup_nanos: registry().histogram(names::INTERN_LOOKUP_NANOS),
    })
}

thread_local! {
    /// Per-thread mint/hit counters, for exact no-allocation assertions
    /// that must not observe other threads' interning — and for exact
    /// per-run attribution: the explorer takes the calling thread's delta
    /// of these instead of diffing the process-global counters, which
    /// concurrent runs would pollute.
    static TL_MINTS: Cell<u64> = const { Cell::new(0) };
    static TL_HITS: Cell<u64> = const { Cell::new(0) };
    /// Lookup counter driving the 1-in-[`LOOKUP_SAMPLE`] latency probe.
    static TL_SAMPLE: Cell<u64> = const { Cell::new(0) };
    /// Direct-mapped per-thread term cache (allocated on first miss):
    /// the last term interned for each hash slot. Strong handles, so at
    /// most [`TL_CACHE_SIZE`] terms per thread are pinned alive — a
    /// bounded trade of memory for lock-free re-interning of the hot
    /// working set.
    static TL_TERMS: RefCell<Vec<Option<Term>>> = const { RefCell::new(Vec::new()) };
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: (0..SHARDS)
            .map(|_| {
                Mutex::new(Shard {
                    buckets: HashMap::default(),
                    inserts: 0,
                })
            })
            .collect(),
        next_id: AtomicU64::new(0),
    })
}

/// Deterministic structural hash of a one-level expression body. Child
/// terms hash through their cached hashes, so this is O(arity), not
/// O(tree size).
fn structural_hash(e: &Expr) -> u64 {
    let mut h = FxHasher::default();
    e.hash(&mut h);
    h.finish()
}

impl Interner {
    fn intern(&self, expr: Expr, hash: u64) -> Term {
        let shard = &self.shards[(hash as usize) & (SHARDS - 1)];
        let mut guard = match shard.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(bucket) = guard.buckets.get_mut(&hash) {
            // Scan for a live equal node, compacting dead entries as we
            // go; stop at the first match (full-hash buckets are almost
            // always singletons, so the scan is one upgrade).
            let mut i = 0;
            while i < bucket.len() {
                match bucket[i].upgrade() {
                    Some(data) => {
                        if data.expr == expr {
                            stats().hits.incr();
                            TL_HITS.with(|c| c.set(c.get() + 1));
                            return Term(data);
                        }
                        i += 1;
                    }
                    None => {
                        bucket.swap_remove(i);
                    }
                }
            }
            if bucket.is_empty() {
                guard.buckets.remove(&hash);
            }
        }
        // Miss: mint a new node.
        let data = Arc::new(TermData {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            hash,
            expr,
        });
        let c = stats();
        c.mints.incr();
        c.live.add(1);
        TL_MINTS.with(|tl| tl.set(tl.get() + 1));
        guard
            .buckets
            .entry(hash)
            .or_default()
            .push(Arc::downgrade(&data));
        guard.inserts += 1;
        if guard.inserts >= SWEEP_EVERY {
            guard.inserts = 0;
            guard.buckets.retain(|_, bucket| {
                bucket.retain(|w| w.strong_count() > 0);
                !bucket.is_empty()
            });
        }
        Term(data)
    }
}

/// A snapshot of the interner's counters.
///
/// Counters are process-global and monotone (except `live`); measure a
/// region of work by taking a snapshot before and after and calling
/// [`InternStats::since`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Nodes minted (interner misses): allocations actually performed.
    pub mints: u64,
    /// Interner hits: equal terms that were shared instead of allocated.
    pub hits: u64,
    /// Nodes currently alive (refcount > 0).
    pub live: u64,
}

impl InternStats {
    /// Reads the current global counters (all threads).
    pub fn snapshot() -> InternStats {
        let c = stats();
        InternStats {
            mints: c.mints.get(),
            hits: c.hits.get(),
            live: c.live.get(),
        }
    }

    /// Reads counters for the **calling thread only** (`live` stays
    /// global — liveness is a process-wide level). Deltas of thread
    /// snapshots give exact no-deep-copy assertions that cannot be
    /// polluted by concurrent threads.
    pub fn thread_snapshot() -> InternStats {
        InternStats {
            mints: TL_MINTS.with(Cell::get),
            hits: TL_HITS.with(Cell::get),
            live: stats().live.get(),
        }
    }

    /// The counter deltas since an earlier snapshot (`live` is carried
    /// over as-is: it is a level, not a flow).
    pub fn since(&self, earlier: &InternStats) -> InternStats {
        InternStats {
            mints: self.mints.saturating_sub(earlier.mints),
            hits: self.hits.saturating_sub(earlier.hits),
            live: self.live,
        }
    }

    /// Fraction of intern requests served by sharing (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.mints + self.hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Estimated heap bytes saved by sharing: every hit avoided one node
    /// allocation.
    pub fn bytes_saved(&self) -> u64 {
        self.hits * std::mem::size_of::<TermData>() as u64
    }

    /// Merges two deltas (summing flows, taking the later level).
    pub fn merge(&self, other: &InternStats) -> InternStats {
        InternStats {
            mints: self.mints + other.mints,
            hits: self.hits + other.hits,
            live: self.live.max(other.live),
        }
    }
}

impl fmt::Display for InternStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interned {} nodes, {} hits ({:.1}% hit rate, ~{} KiB saved), {} live",
            self.mints,
            self.hits,
            self.hit_rate() * 100.0,
            self.bytes_saved() / 1024,
            self.live
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn equal_terms_are_pointer_equal() {
        let a: Term = Expr::pvar("x").add(Expr::int(1)).into();
        let b: Term = Expr::pvar("x").add(Expr::int(1)).into();
        assert!(a.same(&b));
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn distinct_terms_differ() {
        let a: Term = Expr::int(1).into();
        let b: Term = Expr::int(2).into();
        assert!(!a.same(&b));
        assert_ne!(a, b);
        assert!(a < b, "ordering is structural");
    }

    #[test]
    fn clone_is_sharing_not_allocation() {
        let a: Term = Expr::pvar("p").mul(Expr::int(3)).into();
        let before = InternStats::thread_snapshot();
        let b = a.clone();
        let delta = InternStats::thread_snapshot().since(&before);
        assert_eq!(delta.mints, 0, "clone must not mint");
        assert_eq!(delta.hits, 0, "clone must not even consult the interner");
        assert!(a.same(&b));
    }

    #[test]
    fn interning_again_is_a_hit() {
        // A term shape unique to this test so parallel tests can't race
        // on its liveness.
        let shape = || Expr::pvar("intern_hit_probe").add(Expr::int(123_456));
        let keep: Term = shape().into();
        let before = InternStats::thread_snapshot();
        let again: Term = shape().into();
        let delta = InternStats::thread_snapshot().since(&before);
        assert!(keep.same(&again));
        // The top node plus both children are hits; nothing minted.
        assert_eq!(delta.mints, 0);
        assert!(delta.hits >= 1);
    }

    #[test]
    fn stats_account_for_minting() {
        let before = InternStats::thread_snapshot();
        let _t: Term = Expr::pvar("mint_probe_unique_xyzzy")
            .add(Expr::int(31_337_001))
            .into();
        let delta = InternStats::thread_snapshot().since(&before);
        assert!(delta.mints >= 1, "a never-seen shape must mint");
    }

    #[test]
    fn ord_is_consistent_with_structural_order() {
        let mut terms: Vec<Term> = vec![
            Expr::int(3).into(),
            Expr::int(1).into(),
            Expr::pvar("a").into(),
            Expr::int(2).into(),
        ];
        terms.sort();
        let rendered: Vec<String> = terms.iter().map(|t| t.to_string()).collect();
        assert_eq!(rendered, vec!["1", "2", "3", "a"]);
    }
}
