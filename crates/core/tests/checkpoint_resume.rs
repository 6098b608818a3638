//! Crash-safety battery: checkpoint/resume equivalence under deterministic
//! fault injection (`DESIGN.md` §14).
//!
//! The core property: for any seeded program, killing the explorer at any
//! scheduling point and resuming from its checkpoint yields *exactly* the
//! uninterrupted run's path set — same branch-trace identities, same
//! outcomes, same per-path command counts — under DFS and BFS.
//!
//! Reproducibility knobs (environment variables):
//!
//! - `GILLIAN_CHECKPOINT_SEED`  — base program seed (default 0).
//! - `GILLIAN_CHECKPOINT_CASES` — programs per engine config (default 3).
//! - `GILLIAN_FAULT_ARTIFACTS`  — directory to keep checkpoint files in
//!   (default: a temp dir, best-effort cleaned). CI sets this so a failed
//!   battery uploads the exact files to replay against.

use gillian_core::checkpoint::{decode_checkpoint, ResumeError, StateCtx, StateIoError};
use gillian_core::explore::{
    explore, explore_resume, ExploreConfig, ExploreResult, SearchStrategy,
};
use gillian_core::faults::FaultPlan;
use gillian_core::generate::{build_prog, gen_ops, GenOp, MemDialect, Rng};
use gillian_core::memory::{SymBranch, SymbolicMemory};
use gillian_core::symbolic::SymbolicState;
use gillian_core::CheckpointConfig;
use gillian_gil::serial::{ByteReader, Decoder, Encoder};
use gillian_gil::{Expr, Prog};
use gillian_solver::{PathCondition, Solver};
use gillian_telemetry::Journal;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Stateless echo memory with trivial checkpoint support: the engine and
/// the checkpoint plumbing are the only things under test.
#[derive(Clone, Debug, Default)]
struct EchoSym;
impl SymbolicMemory for EchoSym {
    fn execute_action(
        self,
        _: &str,
        arg: &Expr,
        pc: &PathCondition,
        _: &Solver,
    ) -> Vec<SymBranch<Self>> {
        vec![SymBranch::ok(EchoSym, arg.clone(), pc.clone())]
    }

    fn save(&self, _enc: &mut Encoder, _out: &mut Vec<u8>) -> Result<(), StateIoError> {
        Ok(())
    }

    fn load(_dec: &Decoder, _r: &mut ByteReader<'_>) -> Result<Self, StateIoError> {
        Ok(EchoSym)
    }
}

type St = SymbolicState<EchoSym>;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// A unique checkpoint file path. Under `GILLIAN_FAULT_ARTIFACTS` the
/// files persist (CI uploads them on failure); otherwise they land in the
/// system temp dir and are removed by the caller on success.
fn ckpt_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match std::env::var("GILLIAN_FAULT_ARTIFACTS") {
        Ok(d) if !d.trim().is_empty() => {
            let dir = PathBuf::from(d);
            let _ = std::fs::create_dir_all(&dir);
            dir
        }
        _ => std::env::temp_dir(),
    };
    let pid = std::process::id();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("gillian-ckpt-{pid}-{seq}-{tag}.bin"))
}

fn config(strategy: SearchStrategy) -> ExploreConfig {
    ExploreConfig {
        strategy,
        journal: Journal::disabled(),
        ..Default::default()
    }
}

/// The canonical identity of a run's paths: branch trace, outcome kind,
/// and per-path command count — all scheduling-independent.
fn path_set(result: &ExploreResult<St>) -> BTreeSet<(Vec<u32>, String, u64)> {
    result
        .paths
        .iter()
        .map(|p| (p.trace.clone(), p.outcome.kind().to_string(), p.cmds))
        .collect()
}

fn gen_case(seed: u64) -> (Vec<GenOp>, Prog) {
    let ops = gen_ops(&mut Rng::new(seed), 16, MemDialect::None);
    let prog = build_prog(&ops, MemDialect::None);
    (ops, prog)
}

/// Kill the run at every Nth scheduling point and check that resume
/// reconstructs exactly the uninterrupted path set.
fn kill_resume_battery(strategy: SearchStrategy, salt: u64) {
    let base = env_u64("GILLIAN_CHECKPOINT_SEED", 0);
    let cases = env_u64("GILLIAN_CHECKPOINT_CASES", 3);
    let solver = Arc::new(Solver::optimized());
    let ctx = StateCtx::new(solver.clone());
    let mut kills = 0usize;
    for i in 0..cases {
        let seed = base.wrapping_add(salt).wrapping_add(i);
        let (ops, prog) = gen_case(seed);
        // Uninterrupted baseline, with a fault plan that injects nothing —
        // it counts the scheduling points the run draws, which bounds the
        // kill sweep.
        let probe_plan = Arc::new(FaultPlan::seeded(seed));
        let mut cfg = config(strategy);
        cfg.faults = Some(probe_plan.clone());
        let baseline = explore(&prog, "main", St::new(solver.clone()), cfg);
        assert!(
            !baseline.bounded(),
            "seed {seed}: baseline run should be exhaustive\nops: {ops:?}"
        );
        let want = path_set(&baseline);
        let points = probe_plan.points_drawn().max(1);
        // ~12 kill points per case, always including the first and one
        // past the end (a kill that never fires).
        let step = (points / 12).max(1);
        let mut k = 0u64;
        while k <= points {
            let path = ckpt_path(&format!("kill-{seed}-{k}"));
            let plan = Arc::new(FaultPlan::seeded(seed).kill_at(k));
            let mut cfg = config(strategy);
            cfg.faults = Some(plan);
            cfg.checkpoint = Some(CheckpointConfig::at(&path));
            let cut = explore(&prog, "main", St::new(solver.clone()), cfg);
            if cut.killed {
                kills += 1;
                let resumed = explore_resume(
                    &prog,
                    &path,
                    &ctx,
                    St::new(solver.clone()),
                    config(strategy),
                )
                .unwrap_or_else(|e| {
                    panic!("seed {seed} kill@{k}: resume failed: {e}\nops: {ops:?}")
                });
                // Disjoint union of (paths finished before the kill) and
                // (paths explored by the continuation) == baseline.
                let mut got: BTreeSet<(Vec<u32>, String, u64)> = BTreeSet::new();
                for p in &resumed.prior {
                    assert!(
                        got.insert((p.trace.clone(), p.outcome.clone(), p.cmds)),
                        "seed {seed} kill@{k}: duplicate prior path {:?}",
                        p.trace
                    );
                }
                for p in path_set(&resumed.result) {
                    assert!(
                        got.insert(p.clone()),
                        "seed {seed} kill@{k}: path {p:?} in both prior and resumed"
                    );
                }
                assert_eq!(
                    got, want,
                    "seed {seed} kill@{k} ({strategy:?}): \
                     resumed path set differs from uninterrupted run\nops: {ops:?}"
                );
                assert_eq!(
                    resumed.result.total_cmds, baseline.total_cmds,
                    "seed {seed} kill@{k}: command accounting diverged across resume"
                );
            } else {
                // Kill point past the end: the run completed untouched.
                assert_eq!(
                    path_set(&cut),
                    want,
                    "seed {seed} kill@{k}: unkilled run perturbed by the harness"
                );
            }
            let _ = std::fs::remove_file(&path);
            k += step;
        }
    }
    assert!(kills > 0, "battery never managed to kill a run");
    eprintln!("kill/resume battery ({strategy:?}): {kills} kills resumed");
}

#[test]
fn kill_resume_equivalence_dfs_serial() {
    kill_resume_battery(SearchStrategy::Dfs, 0xC0_0000);
}

#[test]
fn kill_resume_equivalence_bfs_serial() {
    kill_resume_battery(SearchStrategy::Bfs, 0xC1_0000);
}

/// Two more DFS sweeps on their own seeds.
#[test]
fn kill_resume_equivalence_dfs_seeds_c2() {
    kill_resume_battery(SearchStrategy::Dfs, 0xC2_0000);
}

#[test]
fn kill_resume_equivalence_dfs_seeds_c3() {
    kill_resume_battery(SearchStrategy::Dfs, 0xC3_0000);
}

/// Interval checkpointing must not perturb the result — only record it.
/// A zero interval is the adversarial case: it checkpoints after every
/// step.
#[test]
fn interval_checkpointing_does_not_perturb_results() {
    let solver = Arc::new(Solver::optimized());
    let (ops, prog) = gen_case(env_u64("GILLIAN_CHECKPOINT_SEED", 0) ^ 0xD0);
    let baseline = explore(
        &prog,
        "main",
        St::new(solver.clone()),
        config(SearchStrategy::Dfs),
    );
    let path = ckpt_path("interval");
    let mut cfg = config(SearchStrategy::Dfs);
    cfg.checkpoint = Some(CheckpointConfig::at(&path).with_interval(Duration::ZERO));
    let ticked = explore(&prog, "main", St::new(solver.clone()), cfg);
    assert_eq!(
        path_set(&ticked),
        path_set(&baseline),
        "interval checkpointing changed the result\nops: {ops:?}"
    );
    assert_eq!(ticked.total_cmds, baseline.total_cmds);
    assert!(!ticked.killed);
    assert!(path.exists(), "no checkpoint file written");
    let _ = std::fs::remove_file(&path);
}

/// A kill with no checkpoint configured must degrade gracefully: the
/// pending frontier is drained as truncated paths instead of being lost.
#[test]
fn kill_without_checkpoint_drains_frontier() {
    let solver = Arc::new(Solver::optimized());
    let (ops, prog) = gen_case(env_u64("GILLIAN_CHECKPOINT_SEED", 0) ^ 0xE0);
    let mut cfg = config(SearchStrategy::Dfs);
    cfg.faults = Some(Arc::new(FaultPlan::seeded(7).kill_at(3)));
    let r = explore(&prog, "main", St::new(solver), cfg);
    assert!(r.killed, "kill@3 did not fire\nops: {ops:?}");
    assert!(
        r.bounded(),
        "a killed run must not report itself exhaustive"
    );
    assert!(
        r.paths.iter().any(|p| p.outcome.kind() == "truncated"),
        "killed run without a checkpoint must surface its frontier as \
         truncated paths\nops: {ops:?}"
    );
}

/// Same seed ⇒ identical injections, identical results: the whole point
/// of the deterministic harness is that a fault schedule is replayable.
#[test]
fn fault_schedule_is_deterministic() {
    let (ops, prog) = gen_case(env_u64("GILLIAN_CHECKPOINT_SEED", 0) ^ 0xF0);
    // A fresh solver per run: determinism is claimed for identical initial
    // conditions, and a shared solver's warmed caches legitimately change
    // how many internal queries (and thus fault points) a run draws.
    let run = |seed: u64| {
        let plan = Arc::new(
            FaultPlan::seeded(seed)
                .with_panic_rate(3000)
                .with_unknown_rate(3000)
                .with_latency(1500, Duration::from_micros(10)),
        );
        let mut cfg = config(SearchStrategy::Dfs);
        cfg.faults = Some(plan.clone());
        let r = explore(&prog, "main", St::new(Arc::new(Solver::optimized())), cfg);
        (plan.rendered_log(), plan.points_drawn(), path_set(&r))
    };
    let (log_a, points_a, paths_a) = run(42);
    let (log_b, points_b, paths_b) = run(42);
    assert_eq!(log_a, log_b, "same seed produced different fault schedules");
    assert_eq!(points_a, points_b);
    assert_eq!(
        paths_a, paths_b,
        "same fault schedule produced different results\nops: {ops:?}"
    );
    assert!(!log_a.is_empty(), "rates this high should inject something");
    // A different seed lands its faults elsewhere (and may explore a
    // different tree as a consequence — forced Unknowns keep branches).
    let (log_c, _, _) = run(43);
    assert_ne!(
        log_a, log_c,
        "different seeds produced identical non-empty schedules: {log_a:?}"
    );
}

/// Every way of damaging a checkpoint file must produce a clean, typed
/// error — truncation at *every* length, bad magic, a patched version,
/// and byte flips — and never a panic. Damage re-sealed under a fresh
/// checksum may decode; then resuming from it must not panic either.
#[test]
fn corrupted_checkpoints_fail_cleanly() {
    let solver = Arc::new(Solver::optimized());
    let ctx = StateCtx::new(solver.clone());
    let (ops, prog) = gen_case(env_u64("GILLIAN_CHECKPOINT_SEED", 0) ^ 0xAB);
    let path = ckpt_path("corrupt");
    let mut cfg = config(SearchStrategy::Dfs);
    cfg.faults = Some(Arc::new(FaultPlan::seeded(1).kill_at(5)));
    cfg.checkpoint = Some(CheckpointConfig::at(&path));
    let r = explore(&prog, "main", St::new(solver.clone()), cfg);
    assert!(r.killed, "kill@5 did not fire\nops: {ops:?}");
    let bytes = std::fs::read(&path).expect("checkpoint file");
    let _ = std::fs::remove_file(&path);
    assert!(
        decode_checkpoint::<St>(&bytes, &ctx).is_ok(),
        "pristine checkpoint failed to decode"
    );

    // Truncation at every length strictly shorter than the file.
    for cut in 0..bytes.len() {
        let r = decode_checkpoint::<St>(&bytes[..cut], &ctx);
        assert!(r.is_err(), "truncation to {cut}/{} decoded", bytes.len());
    }

    // Magic damage reports BadMagic; version damage reports BadVersion
    // (the checksum deliberately does not cover the version field, so a
    // version bump is reported as such rather than as corruption).
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        decode_checkpoint::<St>(&bad, &ctx),
        Err(ResumeError::BadMagic)
    ));
    let mut bad = bytes.clone();
    bad[8] = bad[8].wrapping_add(1);
    assert!(matches!(
        decode_checkpoint::<St>(&bad, &ctx),
        Err(ResumeError::BadVersion { expected: 2, .. })
    ));

    // Any single-byte flip past the version field must be caught — by the
    // checksum, or (for flips inside the checksum field itself) by the
    // mismatch it creates.
    for i in 12..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x01;
        match decode_checkpoint::<St>(&bad, &ctx) {
            Err(ResumeError::ChecksumMismatch) => {}
            Err(other) => panic!("flip at {i}: expected ChecksumMismatch, got {other}"),
            Ok(_) => panic!("flip at byte {i} went undetected"),
        }
    }

    // Seeded random multi-byte damage: decoding must never panic.
    let mut rng = Rng::new(0xBADC0DE);
    for _ in 0..200 {
        let mut bad = bytes.clone();
        let flips = 1 + rng.below(8) as usize;
        for _ in 0..flips {
            let at = rng.below(bad.len() as u64) as usize;
            bad[at] ^= (rng.below(255) + 1) as u8;
        }
        let _ = decode_checkpoint::<St>(&bad, &ctx);
    }

    // Damage that passes the checksum reaches the structure decoder:
    // every payload byte of a checkpoint with pending and completed paths,
    // under each mask, re-sealed. Decoding returns a typed result, and
    // whatever decodes resumes on its program without a panic.
    let fixture: &[u8] = include_bytes!("fixtures/checkpoint_v2_summaries.bin");
    let (_, prog) = gen_case(928);
    let resume_path = ckpt_path("mutated");
    let (mut decoded, mut refused, mut resumed_cmds) = (0usize, 0usize, 0u64);
    for i in 20..fixture.len() {
        for mask in [0x01u8, 0x02, 0x10, 0x80, 0xff] {
            let mut bad = fixture.to_vec();
            bad[i] ^= mask;
            let sum = fnv1a(&bad[20..]);
            bad[12..20].copy_from_slice(&sum.to_le_bytes());
            let Ok(data) = decode_checkpoint::<St>(&bad, &ctx) else {
                refused += 1;
                continue;
            };
            decoded += 1;
            std::fs::write(&resume_path, &bad).expect("write mutated checkpoint");
            // The budget counts the commands the checkpoint already spent.
            let cfg = ExploreConfig {
                max_total_cmds: data.total_cmds.saturating_add(200),
                ..config(SearchStrategy::Dfs)
            };
            let resumed = explore_resume(&prog, &resume_path, &ctx, St::new(solver.clone()), cfg)
                .unwrap_or_else(|e| panic!("byte {i} ^ {mask:#x}: decoded, then {e}"));
            assert_eq!(
                resumed.result.engine_errors().count(),
                0,
                "byte {i} ^ {mask:#x}: resuming panicked"
            );
            resumed_cmds += resumed.result.total_cmds.saturating_sub(data.total_cmds);
        }
    }
    let _ = std::fs::remove_file(&resume_path);
    eprintln!(
        "checkpoint mutation sweep: {decoded} decoded, {refused} refused, \
         {resumed_cmds} commands resumed"
    );
    assert!(
        decoded > 0 && refused > 0 && resumed_cmds > 0,
        "the sweep should decode, refuse and resume"
    );
}

/// FNV-1a, the checkpoint checksum, to re-seal a damaged payload.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A canned version-1 checkpoint (written before the bytecode resume
/// point was added to frontier items) must be rejected with a clean
/// [`ResumeError::BadVersion`] — not `ChecksumMismatch` (the checksum
/// deliberately excludes the version field precisely so this report stays
/// accurate), and never a panic or a silently misparsed frontier.
#[test]
fn canned_v1_checkpoint_reports_bad_version() {
    let bytes: &[u8] = include_bytes!("fixtures/checkpoint_v1.bin");
    // Guard the fixture itself: a valid v1 header is magic then version 1.
    assert_eq!(&bytes[..8], gillian_core::checkpoint::MAGIC);
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
    let ctx = StateCtx::new(Arc::new(Solver::optimized()));
    match decode_checkpoint::<St>(bytes, &ctx) {
        Err(ResumeError::BadVersion { found: 1, expected }) => {
            assert_eq!(expected, gillian_core::checkpoint::VERSION);
        }
        other => panic!("v1 fixture: expected BadVersion, got {other:?}"),
    }
}

/// The value a checkpoint's diagnostics record under `name`, read from the
/// raw bytes (each diagnostic is its name string followed by a `u64`), so
/// a name this build's decoder skips can still be checked.
fn raw_diagnostic(bytes: &[u8], name: &str) -> Option<u64> {
    let at = bytes
        .windows(name.len())
        .position(|w| w == name.as_bytes())?;
    let value = bytes.get(at + name.len()..at + name.len() + 8)?;
    Some(u64::from_le_bytes(value.try_into().ok()?))
}

/// A version-2 checkpoint written by a build that still had procedure
/// summaries, from a run with them armed and killed mid-run (generated
/// program seed 928, fault plan `kill_at(17)`). Its diagnostics carry
/// `summaries_recorded` and `summaries_applied` entries, which this build
/// no longer knows: the decoder skips them, and resuming must reach
/// exactly the `(trace, outcome)` set of a fresh run. Command counts are
/// not compared, since a spliced call retired its callee as one command.
#[test]
fn checkpoint_written_with_summaries_armed_resumes() {
    let bytes: &[u8] = include_bytes!("fixtures/checkpoint_v2_summaries.bin");
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
    for name in ["summaries_recorded", "summaries_applied"] {
        assert!(
            raw_diagnostic(bytes, name).is_some_and(|v| v > 0),
            "fixture lost its nonzero {name}"
        );
    }
    let (_, prog) = gen_case(928);
    let fresh = explore(
        &prog,
        "main",
        St::new(Arc::new(Solver::optimized())),
        config(SearchStrategy::Dfs),
    );
    let outcomes = |set: BTreeSet<(Vec<u32>, String, u64)>| -> BTreeSet<(Vec<u32>, String)> {
        set.into_iter().map(|(t, o, _)| (t, o)).collect()
    };
    let want = outcomes(path_set(&fresh));

    let path = ckpt_path("v2-summaries");
    std::fs::write(&path, bytes).expect("write fixture copy");
    let solver = Arc::new(Solver::optimized());
    let ctx = StateCtx::new(solver.clone());
    let resumed = explore_resume(
        &prog,
        &path,
        &ctx,
        St::new(solver),
        config(SearchStrategy::Dfs),
    );
    let _ = std::fs::remove_file(&path);
    let resumed = resumed.expect("fixture resumes");
    assert!(
        !resumed.prior.is_empty() && !resumed.result.paths.is_empty(),
        "fixture should hold both completed and pending paths"
    );
    let mut got: BTreeSet<(Vec<u32>, String)> = resumed
        .prior
        .iter()
        .map(|p| (p.trace.clone(), p.outcome.clone()))
        .collect();
    got.extend(outcomes(path_set(&resumed.result)));
    assert_eq!(got, want, "resumed path set differs from a fresh run");
}

/// Resuming from a file that never existed is a clean I/O error.
#[test]
fn resume_from_missing_file_is_clean() {
    let solver = Arc::new(Solver::optimized());
    let ctx = StateCtx::new(solver.clone());
    let (_, prog) = gen_case(1);
    let err = explore_resume(
        &prog,
        &ckpt_path("missing"),
        &ctx,
        St::new(solver),
        config(SearchStrategy::Dfs),
    );
    assert!(matches!(err, Err(ResumeError::Io(_))));
}
