//! Summary-reuse equivalence battery (`DESIGN.md` §17).
//!
//! The core property: procedure summaries are a pure *speedup*. For any
//! seeded program, exploring with summaries {off, on-cold, on-warm-from-
//! disk} yields identical path sets — same branch-trace identities, same
//! outcome kinds — across DFS/BFS, serial and parallel engines, and both
//! the tree-walk and bytecode backends. The only licensed difference is
//! command counts: a spliced call charges the `Call` command but skips
//! the callee's body, so per-path `cmds` with summaries on is bounded by
//! the summaries-off count for the same trace.
//!
//! The second half is the corruption battery for the on-disk store: every
//! way of damaging a summary file — truncation at every length, bad
//! magic, a stale version (live-patched and canned fixture), byte flips,
//! random multi-byte damage — must produce a typed [`SummaryLoadError`]
//! and never a panic, and a poisoned file must degrade the run to cold
//! execution rather than aborting it.
//!
//! Reproducibility knobs (environment variables):
//!
//! - `GILLIAN_SUMMARY_SEED`  — base program seed (default 0).
//! - `GILLIAN_SUMMARY_CASES` — programs per engine config (default 25).
//! - `GILLIAN_WORKERS`       — exploration workers (default 1); CI runs
//!   the battery under both 1 and 4.

use gillian_core::explore::{explore_with, ExploreConfig, ExploreResult, SearchStrategy};
use gillian_core::generate::{build_prog, gen_ops, GenOp, MemDialect, Rng};
use gillian_core::memory::{SymBranch, SymbolicMemory};
use gillian_core::symbolic::SymbolicState;
use gillian_gil::{Expr, Prog};
use gillian_solver::summary::{SUMMARY_MAGIC, SUMMARY_VERSION};
use gillian_solver::{PathCondition, Solver, SummaryLoadError, SummaryStore};
use gillian_telemetry::Journal;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stateless echo memory: summaries never fire around memory actions, so
/// the engine and the summary plumbing are the only things under test.
#[derive(Clone, Debug, Default)]
struct EchoSym;
impl SymbolicMemory for EchoSym {
    fn execute_action(
        self,
        _: &str,
        arg: &Expr,
        _: &PathCondition,
        _: &Solver,
    ) -> Vec<SymBranch<Self>> {
        vec![SymBranch::ok(EchoSym, arg.clone())]
    }
}

type St = SymbolicState<EchoSym>;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// A unique scratch file path in the system temp dir.
fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let pid = std::process::id();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gillian-summ-{pid}-{seq}-{tag}.gilsum"))
}

fn config(strategy: SearchStrategy, bytecode: bool, summaries: bool) -> ExploreConfig {
    ExploreConfig {
        strategy,
        workers: env_u64("GILLIAN_WORKERS", 1) as usize,
        bytecode: Some(bytecode),
        summaries: Some(summaries),
        journal: Journal::disabled(),
        ..Default::default()
    }
}

/// The per-trace identity of a run: outcome kind and command count,
/// keyed by branch trace (scheduling-independent).
fn path_map(result: &ExploreResult<St>) -> BTreeMap<Vec<u32>, (String, u64)> {
    let mut map = BTreeMap::new();
    for p in &result.paths {
        let prev = map.insert(p.trace.clone(), (p.outcome.kind().to_string(), p.cmds));
        assert!(prev.is_none(), "duplicate trace {:?}", p.trace);
    }
    map
}

fn gen_case(seed: u64) -> (Vec<GenOp>, Prog) {
    let ops = gen_ops(&mut Rng::new(seed), 16, MemDialect::None);
    let prog = build_prog(&ops, MemDialect::None);
    (ops, prog)
}

/// Asserts the three-way equivalence for one run pair: identical traces,
/// identical outcomes, and summaries-on command counts bounded by the
/// summaries-off counts (equality when no summary fired on that path).
fn assert_equiv(
    off: &BTreeMap<Vec<u32>, (String, u64)>,
    on: &BTreeMap<Vec<u32>, (String, u64)>,
    what: &str,
    ctx: &str,
) {
    let off_traces: Vec<_> = off.keys().collect();
    let on_traces: Vec<_> = on.keys().collect();
    assert_eq!(off_traces, on_traces, "{ctx}: {what} changed the trace set");
    for (trace, (off_kind, off_cmds)) in off {
        let (on_kind, on_cmds) = &on[trace];
        assert_eq!(
            off_kind, on_kind,
            "{ctx}: {what} changed the outcome of trace {trace:?}"
        );
        assert!(
            on_cmds <= off_cmds,
            "{ctx}: {what} *grew* cmds on trace {trace:?} ({on_cmds} > {off_cmds}) — \
             a spliced call must only skip callee commands"
        );
    }
}

/// The tentpole battery: {off, on-cold, on-warm-from-disk} over seeded
/// programs, for one (strategy, bytecode) engine configuration. The warm
/// leg round-trips the cold leg's harvest through a summary file into a
/// fresh solver, exactly as `GILLIAN_SUMMARY_FILE` does across processes.
fn equivalence_battery(strategy: SearchStrategy, bytecode: bool, salt: u64) {
    let base = env_u64("GILLIAN_SUMMARY_SEED", 0);
    let cases = env_u64("GILLIAN_SUMMARY_CASES", 25);
    let (mut recorded, mut warm_applied) = (0u64, 0u64);
    for i in 0..cases {
        let seed = base.wrapping_add(salt).wrapping_add(i);
        let (ops, prog) = gen_case(seed);
        let ctx = format!("seed {seed} ({strategy:?}, bytecode={bytecode})");

        let off_solver = Arc::new(Solver::optimized());
        let off = explore_with(
            &prog,
            "main",
            St::new(off_solver),
            config(strategy, bytecode, false),
        );
        assert_eq!(
            off.diagnostics.summaries_recorded, 0,
            "{ctx}: summaries-off run harvested entries\nops: {ops:?}"
        );
        let want = path_map(&off);

        // Cold: a fresh, empty store that harvests as it goes (and may
        // already apply within the run when a call site repeats).
        let cold_solver = Arc::new(Solver::optimized());
        let cold = explore_with(
            &prog,
            "main",
            St::new(cold_solver.clone()),
            config(strategy, bytecode, true),
        );
        assert_equiv(&want, &path_map(&cold), "cold summaries", &ctx);
        recorded += cold.diagnostics.summaries_recorded;

        // Warm: the cold harvest through disk into a fresh solver, so the
        // applications come from deserialized (re-interned) entries.
        let path = scratch_path(&format!("equiv-{seed}"));
        cold_solver
            .summaries()
            .save_file(&path)
            .unwrap_or_else(|e| panic!("{ctx}: save failed: {e}"));
        let warm_solver = Arc::new(Solver::optimized());
        warm_solver
            .summaries()
            .load_file(&path)
            .unwrap_or_else(|e| panic!("{ctx}: load failed: {e}"));
        let _ = std::fs::remove_file(&path);
        let warm = explore_with(
            &prog,
            "main",
            St::new(warm_solver),
            config(strategy, bytecode, true),
        );
        assert_equiv(&want, &path_map(&warm), "warm summaries", &ctx);
        warm_applied += warm.diagnostics.summaries_applied;
    }
    // The battery must actually exercise the machinery: the corpus draws
    // `helper` calls often enough that some windows harvest, and a warm
    // run must splice from its preloaded store.
    assert!(recorded > 0, "battery harvested no summaries");
    assert!(warm_applied > 0, "warm runs never applied a summary");
    eprintln!(
        "summary equivalence battery ({strategy:?}, bytecode={bytecode}): \
         {recorded} recorded, {warm_applied} warm applications"
    );
}

#[test]
fn summary_equivalence_dfs() {
    equivalence_battery(SearchStrategy::Dfs, false, 0x5C_0000);
}

#[test]
fn summary_equivalence_bfs() {
    equivalence_battery(SearchStrategy::Bfs, false, 0x5C_1000);
}

#[test]
fn summary_equivalence_dfs_bytecode() {
    equivalence_battery(SearchStrategy::Dfs, true, 0x5C_0000);
}

#[test]
fn summary_equivalence_bfs_bytecode() {
    equivalence_battery(SearchStrategy::Bfs, true, 0x5C_1000);
}

/// Both backends against the *same* store: a summary harvested by the
/// tree-walk engine must splice identically under the bytecode engine
/// and vice versa (the hooks sit above the dispatch strategy).
#[test]
fn summaries_are_backend_agnostic() {
    let base = env_u64("GILLIAN_SUMMARY_SEED", 0);
    for i in 0..5u64 {
        let seed = base.wrapping_add(0x5C_2000).wrapping_add(i);
        let (ops, prog) = gen_case(seed);
        let off = explore_with(
            &prog,
            "main",
            St::new(Arc::new(Solver::optimized())),
            config(SearchStrategy::Dfs, false, false),
        );
        let want = path_map(&off);
        // Harvest under the tree walk, splice under bytecode (shared
        // solver carries the store across the two runs).
        let solver = Arc::new(Solver::optimized());
        let tree = explore_with(
            &prog,
            "main",
            St::new(solver.clone()),
            config(SearchStrategy::Dfs, false, true),
        );
        let ctx = format!("seed {seed} (cross-backend)");
        assert_equiv(&want, &path_map(&tree), "tree-walk summaries", &ctx);
        let byte = explore_with(
            &prog,
            "main",
            St::new(solver.clone()),
            config(SearchStrategy::Dfs, true, true),
        );
        assert_equiv(
            &want,
            &path_map(&byte),
            "bytecode-over-tree-walk store",
            &ctx,
        );
        if tree.diagnostics.summaries_recorded > 0 {
            assert!(
                byte.diagnostics.summaries_applied > 0,
                "seed {seed}: bytecode run ignored the tree-walk harvest\nops: {ops:?}"
            );
        }
    }
}

/// A store armed for one program must never answer calls from another:
/// re-arming swaps the fingerprint map, and a procedure body edit changes
/// its fingerprint even when the name collides.
#[test]
fn summaries_do_not_leak_across_programs() {
    let base = env_u64("GILLIAN_SUMMARY_SEED", 0);
    let solver = Arc::new(Solver::optimized());
    // Warm the shared store on a corpus of programs, then check each
    // program still explores to its summaries-off path set (fingerprints
    // confine every entry to the body it was harvested from — `helper`
    // is shared verbatim, so cross-program reuse of it is sound).
    let seeds: Vec<u64> = (0..6).map(|i| base.wrapping_add(0x5C_3000 + i)).collect();
    for &seed in &seeds {
        let (_, prog) = gen_case(seed);
        explore_with(
            &prog,
            "main",
            St::new(solver.clone()),
            config(SearchStrategy::Dfs, false, true),
        );
    }
    for &seed in &seeds {
        let (ops, prog) = gen_case(seed);
        let off = explore_with(
            &prog,
            "main",
            St::new(Arc::new(Solver::optimized())),
            config(SearchStrategy::Dfs, false, false),
        );
        let warm = explore_with(
            &prog,
            "main",
            St::new(solver.clone()),
            config(SearchStrategy::Dfs, false, true),
        );
        assert_equiv(
            &path_map(&off),
            &path_map(&warm),
            "cross-program store",
            &format!("seed {seed}\nops: {ops:?}"),
        );
    }
}

/// Builds a summary store with a few real harvested entries and returns
/// its serialized bytes (via an actual file round-trip, so the corruption
/// sweep damages exactly what `save_file` writes).
fn harvested_store_bytes() -> Vec<u8> {
    let solver = Arc::new(Solver::optimized());
    let base = env_u64("GILLIAN_SUMMARY_SEED", 0);
    for i in 0..10u64 {
        let (_, prog) = gen_case(base.wrapping_add(0x5C_4000).wrapping_add(i));
        explore_with(
            &prog,
            "main",
            St::new(solver.clone()),
            config(SearchStrategy::Dfs, false, true),
        );
        if !solver.summaries().is_empty() {
            break;
        }
    }
    assert!(
        !solver.summaries().is_empty(),
        "corpus produced no summaries to corrupt"
    );
    let path = scratch_path("pristine");
    solver.summaries().save_file(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Loads `bytes` from a scratch file into a fresh store, returning the
/// typed result exactly as a warm run's preload would see it.
fn load_bytes(bytes: &[u8], tag: &str) -> Result<usize, SummaryLoadError> {
    let path = scratch_path(tag);
    std::fs::write(&path, bytes).expect("write scratch");
    let store = SummaryStore::new();
    let r = store.load_file(&path);
    if r.is_err() {
        assert!(
            store.is_empty(),
            "a failed load must leave the store unchanged"
        );
    }
    let _ = std::fs::remove_file(&path);
    r
}

/// Every way of damaging a summary file must produce a clean, typed
/// error — truncation at *every* length, bad magic, a patched version,
/// and byte flips — and never a panic.
#[test]
fn corrupted_summary_files_fail_cleanly() {
    let bytes = harvested_store_bytes();
    assert!(
        load_bytes(&bytes, "ok").expect("pristine file must load") > 0,
        "pristine file merged nothing"
    );

    // Truncation at every length strictly shorter than the file.
    for cut in 0..bytes.len() {
        let r = load_bytes(&bytes[..cut], "trunc");
        assert!(r.is_err(), "truncation to {cut}/{} loaded", bytes.len());
    }

    // Magic damage reports BadMagic; version damage reports BadVersion
    // (the checksum deliberately does not cover the version field, so a
    // stale file is reported as such rather than as corruption).
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        load_bytes(&bad, "magic"),
        Err(SummaryLoadError::BadMagic)
    ));
    let mut bad = bytes.clone();
    bad[8] = bad[8].wrapping_add(1);
    assert!(matches!(
        load_bytes(&bad, "version"),
        Err(SummaryLoadError::BadVersion { expected, .. }) if expected == SUMMARY_VERSION
    ));

    // Any single-byte flip past the version field must be caught — by the
    // checksum, or (for flips inside the checksum field itself) by the
    // mismatch it creates.
    for i in 12..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x01;
        match load_bytes(&bad, "flip") {
            Err(SummaryLoadError::ChecksumMismatch) => {}
            Err(other) => panic!("flip at {i}: expected ChecksumMismatch, got {other}"),
            Ok(_) => panic!("flip at byte {i} went undetected"),
        }
    }

    // Seeded random multi-byte damage: loading must never panic.
    let mut rng = Rng::new(0xBAD_5C4);
    for _ in 0..200 {
        let mut bad = bytes.clone();
        let flips = 1 + rng.below(8) as usize;
        for _ in 0..flips {
            let at = rng.below(bad.len() as u64) as usize;
            bad[at] ^= (rng.below(255) + 1) as u8;
        }
        let _ = load_bytes(&bad, "rand");
    }
}

/// A canned version-1 summary file (from before the generalized-apply
/// verdict replay added per-delta proofs to the format) must be rejected
/// with a clean [`SummaryLoadError::BadVersion`] — not checksum noise
/// (the checksum deliberately excludes the version field precisely so
/// this report stays accurate), and never a panic.
#[test]
fn canned_v1_summary_reports_bad_version() {
    let bytes: &[u8] = include_bytes!("fixtures/summary_v1.bin");
    // Guard the fixture itself: a valid v1 header is magic then version 1.
    assert_eq!(&bytes[..8], SUMMARY_MAGIC);
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
    match load_bytes(bytes, "canned-v1") {
        Err(SummaryLoadError::BadVersion { found: 1, expected }) => {
            assert_eq!(expected, SUMMARY_VERSION);
        }
        other => panic!("v1 fixture: expected BadVersion, got {other:?}"),
    }
}

/// A poisoned summary file degrades the run to *cold* execution: the
/// preload fails with a typed error, the store stays empty, and the
/// exploration itself proceeds to the exact summaries-off path set.
#[test]
fn poisoned_store_degrades_to_cold_execution() {
    let (ops, prog) = gen_case(env_u64("GILLIAN_SUMMARY_SEED", 0) ^ 0x5C5);
    let off = explore_with(
        &prog,
        "main",
        St::new(Arc::new(Solver::optimized())),
        config(SearchStrategy::Dfs, false, false),
    );

    let solver = Arc::new(Solver::optimized());
    let path = scratch_path("poison");
    std::fs::write(&path, b"GILSUM\0\0garbage-that-is-not-a-store").expect("write");
    let r = solver.summaries().load_file(&path);
    let _ = std::fs::remove_file(&path);
    assert!(r.is_err(), "garbage loaded as a summary store");
    assert!(solver.summaries().is_empty());

    let cold = explore_with(
        &prog,
        "main",
        St::new(solver),
        config(SearchStrategy::Dfs, false, true),
    );
    assert_equiv(
        &path_map(&off),
        &path_map(&cold),
        "post-poison cold run",
        &format!("ops: {ops:?}"),
    );
}

/// Loading a file that never existed is a clean I/O error.
#[test]
fn missing_summary_file_is_clean() {
    let store = SummaryStore::new();
    let r = store.load_file(&scratch_path("missing"));
    assert!(matches!(r, Err(SummaryLoadError::Io(_))));
}
