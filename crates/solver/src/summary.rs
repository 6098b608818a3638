//! Persistent per-procedure summaries (`DESIGN.md` §17).
//!
//! A summary is a cached implication between a call-site condition and a
//! post-state: *"under entry condition `π`, calling `f(ā)` adds exactly
//! the conjuncts `δ̄` to the path condition and returns `r`"*. The paper's
//! compositional follow-ups (Gillian part ii) treat procedure specs this
//! way; here the entries are **harvested from execution** rather than
//! written by hand — when a call frame returns cleanly with every branch
//! decision inside the callee having been a *proven* one-sided Sat (see
//! the harvest conditions below), the engine records the entry and later
//! calls with the same arguments under a condition that **subsumes** the
//! entry condition splice the post-state instead of re-executing.
//!
//! ## Soundness conditions
//!
//! A callee window is summarizable only when, between call and return:
//!
//! - **no fork happened** — every symbolic guard was one-sided with the
//!   surviving side proven `Sat` and the dead side proven `Unsat`, so the
//!   callee contributed no branch-trace entries and the recorded deltas
//!   are the *unique* continuation under the entry condition;
//! - **no memory action ran** — the heap footprint is untouched (a write
//!   would escape the summary's store-only post-state);
//! - **no fresh symbol was allocated** — splicing would otherwise skip
//!   allocator increments and desynchronize later `uSym`/`iSym` sites.
//!
//! Under those conditions the callee's effect on the caller is exactly
//! (pc deltas, return expression): callee store writes die with the frame
//! and evaluation results are program-variable-free. Because the full
//! simplifier's output depends on the path condition only through its
//! typing environment ([`crate::pathcond::PcEnv`] — the invariant the
//! simplify memo is keyed on), re-applying a summary under a *different*
//! condition is exact as long as (a) the new condition subsumes the entry
//! condition, (b) the typing environments are content-equal, and (c) each
//! recorded delta reproduces the same one-sided verdict pair under the
//! new condition. The application pass checks all three and falls through
//! to normal execution on any deviation.
//!
//! ## Persistence
//!
//! [`SummaryStore::save_file`]/[`SummaryStore::load_file`] serialize the
//! store following the checkpoint conventions (`DESIGN.md` §14): a magic
//! header, a format version, an FNV-1a checksum over the payload, one
//! re-interned post-order term table shared by every entry, and an atomic
//! write to `<path>.tmp` renamed over `<path>`. Loads never panic on
//! untrusted bytes: every failure is a typed [`SummaryLoadError`], and a
//! poisoned file degrades the run to cold execution.

use crate::pathcond::{PathCondition, PcKey};
use crate::sat::SatResult;
use crate::solver::Solver;
use gillian_gil::serial::{self, ByteReader, Decoder, Encoder, WireError};
use gillian_gil::{Expr, Ident, Prog};
use gillian_telemetry::{names, registry, Counter};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// File magic: identifies a Gillian summary store on disk.
pub const SUMMARY_MAGIC: &[u8; 8] = b"GILSUM\0\0";

/// Current format version. Readers reject other versions with
/// [`SummaryLoadError::BadVersion`]; there is no cross-version migration
/// (summaries are a cache — a stale file is simply re-harvested).
pub const SUMMARY_VERSION: u32 = 2;

/// Most arguments a summarized call may take (larger calls are skipped).
pub const MAX_ARGS: usize = 8;
/// Most path-condition deltas a summary may carry.
pub const MAX_DELTAS: usize = 16;
/// Most entries kept per procedure (distinct argument/condition shapes).
pub const MAX_ENTRIES_PER_PROC: usize = 32;
/// Global entry cap across all procedures.
pub const MAX_ENTRIES: usize = 4096;

/// FNV-1a over a byte slice (same parameters as the checkpoint format).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The store's handles into the process-global telemetry registry,
/// fetched once so the call hot path never takes the registry lock.
struct Tel {
    recorded: &'static Counter,
    applied: &'static Counter,
    missed: &'static Counter,
    escaped: &'static Counter,
}

fn tel() -> &'static Tel {
    static TEL: OnceLock<Tel> = OnceLock::new();
    TEL.get_or_init(|| Tel {
        recorded: registry().counter(names::SUMMARY_RECORDED),
        applied: registry().counter(names::SUMMARY_APPLIED),
        missed: registry().counter(names::SUMMARY_MISSED),
        escaped: registry().counter(names::SUMMARY_ESCAPED),
    })
}

/// One harvested summary: under `entry_pc`, calling the procedure with
/// exactly `args` appends `deltas` (in order) to the path condition and
/// returns `ret` normally.
#[derive(Clone, Debug)]
pub struct SummaryEntry {
    /// The exact (interned) argument expressions of the harvested call.
    pub args: Vec<Expr>,
    /// The caller's path condition at call entry.
    pub entry_pc: PathCondition,
    /// Canonical key of `entry_pc` (order-insensitive conjunct identity).
    entry_key: PcKey,
    /// Conjuncts the callee pushed, oldest first — each one a proven
    /// one-sided guard under the condition preceding it.
    pub deltas: Vec<Expr>,
    /// The (program-variable-free) return expression.
    pub ret: Expr,
    /// Fingerprint of the callee's body at harvest time; applications
    /// under a program whose procedure fingerprints differ are skipped.
    pub fingerprint: u64,
}

/// Cumulative counters, readable at any time (mirrors
/// [`crate::solver::SolverStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Summaries harvested from clean call returns.
    pub recorded: u64,
    /// Call sites answered by splicing a summary post-state.
    pub applied: u64,
    /// Call sites with candidate entries that failed the applicability
    /// check (fingerprint, arguments, subsumption, typing, or a delta
    /// verdict deviation).
    pub missed: u64,
    /// Open call windows invalidated by a footprint escape (fork, memory
    /// action, fresh symbol) before their frame returned.
    pub escaped: u64,
}

/// A typed summary-file load failure. Loading never panics on untrusted
/// bytes; every corruption mode maps to one of these (checked in this
/// order: magic, version, checksum, structure, trailing bytes).
#[derive(Debug)]
pub enum SummaryLoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The first eight bytes are not [`SUMMARY_MAGIC`].
    BadMagic,
    /// The file is a summary store of another format version.
    BadVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The payload does not match its recorded checksum.
    ChecksumMismatch,
    /// The payload failed structural decoding.
    Corrupt(WireError),
    /// Structurally valid bytes with an impossible value.
    BadData(&'static str),
}

impl fmt::Display for SummaryLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SummaryLoadError::Io(e) => write!(f, "summary file i/o: {e}"),
            SummaryLoadError::BadMagic => write!(f, "not a summary file (bad magic)"),
            SummaryLoadError::BadVersion { found, expected } => {
                write!(f, "summary version {found}, this build reads {expected}")
            }
            SummaryLoadError::ChecksumMismatch => write!(f, "summary checksum mismatch"),
            SummaryLoadError::Corrupt(e) => write!(f, "summary payload corrupt: {e}"),
            SummaryLoadError::BadData(what) => write!(f, "summary payload invalid: {what}"),
        }
    }
}

impl std::error::Error for SummaryLoadError {}

impl From<WireError> for SummaryLoadError {
    fn from(e: WireError) -> Self {
        SummaryLoadError::Corrupt(e)
    }
}

/// A summary-file write failure.
#[derive(Debug)]
pub enum SummarySaveError {
    /// Filesystem failure (temp write or rename).
    Io(std::io::Error),
    /// An entry failed to serialize.
    Wire(WireError),
}

impl fmt::Display for SummarySaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SummarySaveError::Io(e) => write!(f, "summary file i/o: {e}"),
            SummarySaveError::Wire(e) => write!(f, "summary serialization: {e}"),
        }
    }
}

impl std::error::Error for SummarySaveError {}

/// Per-procedure fingerprints of a program: FNV-1a over each procedure's
/// rendered text (params + body). Summaries are applied only when the
/// callee's fingerprint matches the one recorded at harvest, so a solver
/// shared across many programs (the normal suite shape) never splices a
/// summary from one program into another that happens to reuse the name.
pub fn program_fingerprints(prog: &Prog) -> HashMap<Ident, u64> {
    prog.iter()
        .map(|p| (p.name.clone(), fnv1a(p.to_string().as_bytes())))
        .collect()
}

/// The per-procedure summary store. Lives on the [`Solver`] so entries
/// are shared by every worker of a run and survive across runs in the
/// same process (warm in-process reuse); [`SummaryStore::save_file`] and
/// [`SummaryStore::load_file`] extend that across processes.
///
/// Interior-mutable and thread-safe, like the solver's other caches. The
/// store is **disarmed** by default: a disarmed store costs one relaxed
/// atomic load per call site and neither records nor applies. The
/// exploration engine arms it (with the active program's procedure
/// fingerprints) when `ExploreConfig::summaries` asks for it, and
/// disarms it at run end.
#[derive(Debug, Default)]
pub struct SummaryStore {
    /// Fast gate consulted by every Call/Return hook.
    armed: AtomicBool,
    /// Fingerprints of the armed program's procedures.
    programs: Mutex<HashMap<Ident, u64>>,
    /// Harvested entries per procedure.
    entries: Mutex<HashMap<Ident, Vec<SummaryEntry>>>,
    /// Total entries across all procedures (mirror of map size, kept so
    /// the cap check never walks the map).
    total: AtomicU64,
    recorded: AtomicU64,
    applied: AtomicU64,
    missed: AtomicU64,
    escaped: AtomicU64,
}

impl SummaryStore {
    /// An empty, disarmed store.
    pub fn new() -> SummaryStore {
        SummaryStore::default()
    }

    /// True when the store is armed for recording and application.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Arms the store for the program whose procedure fingerprints are
    /// given. Entries already held (from earlier runs or a loaded file)
    /// stay; they simply only apply where fingerprints match.
    pub fn arm(&self, fingerprints: HashMap<Ident, u64>) {
        *lock_unpoisoned(&self.programs) = fingerprints;
        self.armed.store(true, Ordering::Release);
    }

    /// Disarms the store (idempotent). Entries are retained for the next
    /// armed run; use [`SummaryStore::clear`] to drop them.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Drops every entry (the armed flag and counters are untouched).
    pub fn clear(&self) {
        lock_unpoisoned(&self.entries).clear();
        self.total.store(0, Ordering::Relaxed);
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.total.load(Ordering::Relaxed) as usize
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> SummaryStats {
        SummaryStats {
            recorded: self.recorded.load(Ordering::Relaxed),
            applied: self.applied.load(Ordering::Relaxed),
            missed: self.missed.load(Ordering::Relaxed),
            escaped: self.escaped.load(Ordering::Relaxed),
        }
    }

    /// Notes `n` call windows invalidated by a footprint escape.
    pub fn note_escaped(&self, n: u64) {
        if n > 0 {
            self.escaped.fetch_add(n, Ordering::Relaxed);
            tel().escaped.add(n);
        }
    }

    /// The armed fingerprint of `proc`, if the armed program defines it.
    fn armed_fingerprint(&self, proc: &Ident) -> Option<u64> {
        lock_unpoisoned(&self.programs).get(proc).copied()
    }

    /// Records a harvested summary for `callee`. The caller (the engine's
    /// Return hook) guarantees the harvest conditions; this method
    /// enforces the caps, deduplicates against an existing entry with the
    /// same arguments and entry condition, and attaches the armed
    /// fingerprint (skipping the record when the armed program does not
    /// define `callee` — e.g. a hand-built configuration).
    pub fn record(
        &self,
        callee: &Ident,
        args: &[Expr],
        entry_pc: PathCondition,
        deltas: Vec<Expr>,
        ret: Expr,
    ) {
        if !self.armed() {
            return;
        }
        if args.len() > MAX_ARGS || deltas.len() > MAX_DELTAS || entry_pc.is_trivially_false() {
            return;
        }
        let Some(fingerprint) = self.armed_fingerprint(callee) else {
            return;
        };
        if self.total.load(Ordering::Relaxed) as usize >= MAX_ENTRIES {
            return;
        }
        let entry_key = entry_pc.cache_key();
        let mut map = lock_unpoisoned(&self.entries);
        let list = map.entry(callee.clone()).or_default();
        if list.len() >= MAX_ENTRIES_PER_PROC {
            return;
        }
        if list
            .iter()
            .any(|e| e.fingerprint == fingerprint && e.args == args && e.entry_key == entry_key)
        {
            return;
        }
        list.push(SummaryEntry {
            args: args.to_vec(),
            entry_pc,
            entry_key,
            deltas,
            ret,
            fingerprint,
        });
        drop(map);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        tel().recorded.incr();
    }

    /// Attempts to answer a call to `callee` with `args` under `pc` from
    /// a recorded summary. On success the deltas are spliced onto `pc`
    /// (mutating it exactly as executing the callee would have) and the
    /// recorded return expression is returned; on any miss `pc` is left
    /// untouched and the caller falls through to normal execution.
    ///
    /// Applicability, per candidate entry:
    ///
    /// 1. fingerprint matches the armed program's `callee`;
    /// 2. arguments are term-identical (interned equality);
    /// 3. **fast path** — `pc` has exactly the entry's conjunct set
    ///    ([`PcKey`] equality): the recorded deltas re-push verbatim;
    /// 4. **generalized path** — `pc` [`PathCondition::subsumes`] the
    ///    entry condition *and* induces a content-equal typing
    ///    environment (so every simplification inside the callee would
    ///    reproduce), in which case each recorded delta must reproduce
    ///    its proven one-sided verdict pair (`Sat` with, `Unsat`
    ///    against) under the growing condition, adopting the solver's
    ///    extended condition at each step exactly as execution would.
    pub fn try_apply(
        &self,
        callee: &Ident,
        args: &[Expr],
        pc: &mut PathCondition,
        solver: &Solver,
    ) -> Option<Expr> {
        if !self.armed() {
            return None;
        }
        let fingerprint = self.armed_fingerprint(callee)?;
        let candidates: Vec<SummaryEntry> = {
            let map = lock_unpoisoned(&self.entries);
            let list = map.get(callee)?;
            list.iter()
                .filter(|e| e.fingerprint == fingerprint && e.args == args)
                .cloned()
                .collect()
        };
        if candidates.is_empty() {
            return None;
        }
        let key = pc.cache_key();
        // Fast path first: an exact conjunct-set match replays the deltas
        // with no solver traffic at all.
        for entry in &candidates {
            if entry.entry_key == key {
                for d in &entry.deltas {
                    pc.push(d.clone());
                }
                self.applied.fetch_add(1, Ordering::Relaxed);
                tel().applied.incr();
                return Some(entry.ret.clone());
            }
        }
        'candidates: for entry in &candidates {
            if !pc.subsumes(&entry.entry_pc) || pc.typing_env() != entry.entry_pc.typing_env() {
                continue;
            }
            // Reproduce each one-sided branch decision under the current
            // (stronger) condition. Any deviation — including an Unknown
            // verdict — rejects the candidate; the queries are the same
            // ones normal execution would issue, so nothing is wasted.
            let mut cur = pc.clone();
            for d in &entry.deltas {
                let neg = solver.simplify(&cur, &d.clone().not());
                let (with, next) = solver.sat_assume(&cur, d);
                if with != SatResult::Sat {
                    continue 'candidates;
                }
                if solver.sat_with(&cur, &neg) != SatResult::Unsat {
                    continue 'candidates;
                }
                cur = next;
            }
            *pc = cur;
            self.applied.fetch_add(1, Ordering::Relaxed);
            tel().applied.incr();
            return Some(entry.ret.clone());
        }
        self.missed.fetch_add(1, Ordering::Relaxed);
        tel().missed.incr();
        None
    }

    /// Serializes every entry to `out` (header + checksum + payload).
    fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut enc = Encoder::new();
        let mut body = Vec::new();
        let map = lock_unpoisoned(&self.entries);
        // Canonical order: procedures by name, entries in harvest order.
        let mut procs: Vec<&Ident> = map.keys().collect();
        procs.sort();
        let total: usize = map.values().map(Vec::len).sum();
        serial::put_len(&mut body, total, "summary entries")?;
        for proc in procs {
            for e in &map[proc] {
                serial::put_str(&mut body, proc)?;
                serial::put_u64(&mut body, e.fingerprint);
                serial::put_len(&mut body, e.args.len(), "summary args")?;
                for a in &e.args {
                    enc.write_expr(&mut body, a)?;
                }
                e.entry_pc.save(&mut enc, &mut body)?;
                serial::put_len(&mut body, e.deltas.len(), "summary deltas")?;
                for d in &e.deltas {
                    enc.write_expr(&mut body, d)?;
                }
                enc.write_expr(&mut body, &e.ret)?;
            }
        }
        drop(map);
        let mut payload = Vec::new();
        enc.write_table(&mut payload)?;
        payload.extend_from_slice(&body);
        let mut out = Vec::with_capacity(20 + payload.len());
        out.extend_from_slice(SUMMARY_MAGIC);
        serial::put_u32(&mut out, SUMMARY_VERSION);
        serial::put_u64(&mut out, fnv1a(&payload));
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Decodes a summary file body, returning the entries it holds.
    fn decode(bytes: &[u8]) -> Result<Vec<(Ident, SummaryEntry)>, SummaryLoadError> {
        if bytes.len() < 8 {
            return Err(SummaryLoadError::Corrupt(WireError::Truncated));
        }
        if &bytes[..8] != SUMMARY_MAGIC {
            return Err(SummaryLoadError::BadMagic);
        }
        let mut r = ByteReader::new(&bytes[8..]);
        let version = r.u32()?;
        if version != SUMMARY_VERSION {
            return Err(SummaryLoadError::BadVersion {
                found: version,
                expected: SUMMARY_VERSION,
            });
        }
        let checksum = r.u64()?;
        let payload = &bytes[20..];
        if fnv1a(payload) != checksum {
            return Err(SummaryLoadError::ChecksumMismatch);
        }
        let mut r = ByteReader::new(payload);
        let dec = Decoder::read_table(&mut r)?;
        let n = r.count()?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let proc = Ident::from(r.str()?);
            let fingerprint = r.u64()?;
            let argc = r.count()?;
            if argc > MAX_ARGS {
                return Err(SummaryLoadError::BadData("summary argument count over cap"));
            }
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                args.push(dec.read_expr(&mut r)?);
            }
            let entry_pc = PathCondition::load(&dec, &mut r)?;
            if entry_pc.is_trivially_false() {
                return Err(SummaryLoadError::BadData("trivially false entry condition"));
            }
            let dc = r.count()?;
            if dc > MAX_DELTAS {
                return Err(SummaryLoadError::BadData("summary delta count over cap"));
            }
            let mut deltas = Vec::with_capacity(dc);
            for _ in 0..dc {
                deltas.push(dec.read_expr(&mut r)?);
            }
            let ret = dec.read_expr(&mut r)?;
            let entry_key = entry_pc.cache_key();
            out.push((
                proc,
                SummaryEntry {
                    args,
                    entry_pc,
                    entry_key,
                    deltas,
                    ret,
                    fingerprint,
                },
            ));
        }
        if !r.is_empty() {
            return Err(SummaryLoadError::BadData(
                "trailing bytes after summary payload",
            ));
        }
        Ok(out)
    }

    /// Atomically writes the store to `path`: the bytes go to
    /// `<path>.tmp`, which is then renamed over `path`, so a crash
    /// mid-write never leaves a torn file behind. The temporary name
    /// appends to the whole file name, so no sibling file is touched.
    ///
    /// # Errors
    ///
    /// [`SummarySaveError`] on serialization or filesystem failure.
    pub fn save_file(&self, path: &Path) -> Result<(), SummarySaveError> {
        let bytes = self.encode().map_err(SummarySaveError::Wire)?;
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        std::fs::write(&tmp, &bytes).map_err(SummarySaveError::Io)?;
        std::fs::rename(&tmp, path).map_err(SummarySaveError::Io)
    }

    /// Loads a summary file, merging its entries into this store (the
    /// same dedup and caps as live recording). Returns the number of
    /// entries merged.
    ///
    /// # Errors
    ///
    /// A typed [`SummaryLoadError`]; on error the store is unchanged, so
    /// a poisoned file degrades the run to cold execution rather than
    /// aborting it.
    pub fn load_file(&self, path: &Path) -> Result<usize, SummaryLoadError> {
        let bytes = std::fs::read(path).map_err(SummaryLoadError::Io)?;
        let entries = Self::decode(&bytes)?;
        let mut merged = 0usize;
        let mut map = lock_unpoisoned(&self.entries);
        for (proc, e) in entries {
            if self.total.load(Ordering::Relaxed) as usize >= MAX_ENTRIES {
                break;
            }
            let list = map.entry(proc).or_default();
            if list.len() >= MAX_ENTRIES_PER_PROC {
                continue;
            }
            if list.iter().any(|x| {
                x.fingerprint == e.fingerprint && x.args == e.args && x.entry_key == e.entry_key
            }) {
                continue;
            }
            list.push(e);
            self.total.fetch_add(1, Ordering::Relaxed);
            merged += 1;
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_gil::{Cmd, LVar, Proc};

    fn armed_store(procs: &[&str]) -> SummaryStore {
        let store = SummaryStore::new();
        store.arm(procs.iter().map(|p| (Ident::from(*p), 7u64)).collect());
        store
    }

    fn entry_parts() -> (Vec<Expr>, PathCondition, Vec<Expr>, Expr) {
        let x = Expr::lvar(LVar(0));
        let mut pc = PathCondition::new();
        pc.push(x.clone().lt(Expr::int(10)));
        let deltas = vec![Expr::int(0).le(x.clone())];
        (vec![x.clone()], pc, deltas, x.add(Expr::int(1)))
    }

    #[test]
    fn record_and_exact_apply_round_trip() {
        let store = armed_store(&["f"]);
        let solver = Solver::optimized();
        let (args, pc, deltas, ret) = entry_parts();
        store.record(&"f".into(), &args, pc.clone(), deltas.clone(), ret.clone());
        assert_eq!(store.len(), 1);
        let mut call_pc = pc.clone();
        let got = store.try_apply(&"f".into(), &args, &mut call_pc, &solver);
        assert_eq!(got, Some(ret));
        // The deltas were spliced.
        assert!(call_pc.conjuncts().contains(&deltas[0]));
        assert_eq!(store.stats().applied, 1);
    }

    #[test]
    fn disarmed_store_neither_records_nor_applies() {
        let store = SummaryStore::new();
        let solver = Solver::optimized();
        let (args, pc, deltas, ret) = entry_parts();
        store.record(&"f".into(), &args, pc.clone(), deltas, ret);
        assert!(store.is_empty());
        store.arm([("f".into(), 7u64)].into_iter().collect());
        let (args2, pc2, deltas2, ret2) = entry_parts();
        store.record(&"f".into(), &args2, pc2.clone(), deltas2, ret2);
        assert_eq!(store.len(), 1);
        store.disarm();
        let mut call_pc = pc;
        assert_eq!(
            store.try_apply(&"f".into(), &args, &mut call_pc, &solver),
            None
        );
    }

    #[test]
    fn fingerprint_mismatch_is_a_miss() {
        let store = armed_store(&["f"]);
        let solver = Solver::optimized();
        let (args, pc, deltas, ret) = entry_parts();
        store.record(&"f".into(), &args, pc.clone(), deltas, ret);
        // Re-arm as a different program: same name, different body.
        store.arm([("f".into(), 8u64)].into_iter().collect());
        let mut call_pc = pc;
        assert_eq!(
            store.try_apply(&"f".into(), &args, &mut call_pc, &solver),
            None
        );
    }

    #[test]
    fn generalized_apply_needs_subsumption_and_verdicts() {
        let store = armed_store(&["f"]);
        let solver = Solver::optimized();
        let x = Expr::lvar(LVar(0));
        let mut entry = PathCondition::new();
        entry.push(x.clone().lt(Expr::int(10)));
        // Delta provable one-sided under any extension keeping x < 10.
        let deltas = vec![x.clone().lt(Expr::int(20))];
        store.record(
            &"f".into(),
            std::slice::from_ref(&x),
            entry.clone(),
            deltas,
            Expr::int(1),
        );
        // A strictly stronger caller condition: subsumes the entry.
        let mut stronger = entry.clone();
        stronger.push(Expr::int(0).le(x.clone()));
        let mut call_pc = stronger.clone();
        let got = store.try_apply(&"f".into(), std::slice::from_ref(&x), &mut call_pc, &solver);
        assert_eq!(got, Some(Expr::int(1)));
        assert!(call_pc.conjuncts().contains(&x.clone().lt(Expr::int(20))));
        // A condition that does NOT subsume the entry must miss.
        let mut unrelated = PathCondition::new();
        unrelated.push(Expr::int(0).le(x.clone()));
        let before = unrelated.clone();
        assert_eq!(
            store.try_apply(&"f".into(), &[x], &mut unrelated, &solver),
            None
        );
        assert_eq!(unrelated, before, "a miss must leave the pc untouched");
    }

    #[test]
    fn save_load_round_trips_entries() {
        let store = armed_store(&["f", "g"]);
        let (args, pc, deltas, ret) = entry_parts();
        store.record(&"f".into(), &args, pc.clone(), deltas.clone(), ret.clone());
        store.record(&"g".into(), &[], PathCondition::new(), vec![], Expr::int(3));
        let dir = std::env::temp_dir().join(format!("gilsum-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round.gilsum");
        store.save_file(&path).unwrap();

        let fresh = SummaryStore::new();
        assert_eq!(fresh.load_file(&path).unwrap(), 2);
        assert_eq!(fresh.len(), 2);
        // Re-loading is idempotent (dedup on merge).
        assert_eq!(fresh.load_file(&path).unwrap(), 0);
        fresh.arm([("f".into(), 7u64)].into_iter().collect());
        let solver = Solver::optimized();
        let mut call_pc = pc;
        assert_eq!(
            fresh.try_apply(&"f".into(), &args, &mut call_pc, &solver),
            Some(ret)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saving_leaves_a_sibling_tmp_file_alone() {
        // `suite.gilsum`'s temporary file must not be `suite.tmp`, which
        // may belong to someone else.
        let store = armed_store(&["f"]);
        let (args, pc, deltas, ret) = entry_parts();
        store.record(&"f".into(), &args, pc, deltas, ret);
        let dir = std::env::temp_dir().join(format!("gilsum-sibling-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sibling = dir.join("suite.tmp");
        std::fs::write(&sibling, b"not a summary file").unwrap();
        let path = dir.join("suite.gilsum");
        store.save_file(&path).unwrap();
        assert_eq!(std::fs::read(&sibling).unwrap(), b"not a summary file");
        assert_eq!(SummaryStore::new().load_file(&path).unwrap(), 1);
        assert!(!dir.join("suite.gilsum.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_track_body_changes() {
        let p1 = Prog::from_procs([Proc::new("f", ["x"], vec![Cmd::Return(Expr::pvar("x"))])]);
        let p2 = Prog::from_procs([Proc::new(
            "f",
            ["x"],
            vec![Cmd::Return(Expr::pvar("x").add(Expr::int(1)))],
        )]);
        let f1 = program_fingerprints(&p1);
        let f2 = program_fingerprints(&p2);
        assert_ne!(f1[&Ident::from("f")], f2[&Ident::from("f")]);
        assert_eq!(f1, program_fingerprints(&p1));
    }
}
