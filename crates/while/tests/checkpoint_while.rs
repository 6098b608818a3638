//! Checkpoint/resume over the While instantiation: unlike the engine-level
//! battery (which uses a stateless memory), these runs carry real symbolic
//! heaps — `(location, property) ⇀ expression` cells — through the
//! checkpoint's save/load round trip, so the whole state stack is
//! exercised: store, call frames, allocator, path condition, and memory.

use gillian_core::checkpoint::StateCtx;
use gillian_core::explore::{explore, explore_resume, ExploreConfig, SearchStrategy};
use gillian_core::faults::FaultPlan;
use gillian_core::symbolic::SymbolicState;
use gillian_core::CheckpointConfig;
use gillian_solver::Solver;
use gillian_while::{compile_program, parse_program, WhileSymMemory};
use std::collections::BTreeSet;
use std::sync::Arc;

type St = SymbolicState<WhileSymMemory>;

/// A heap-heavy branching program: several objects, aliasing lookups, and
/// a symbolic branch tree wide enough that a mid-run kill leaves real
/// memories in the frontier.
const SOURCE: &str = r#"
    proc main() {
        x := symb();
        assume (0 <= x and x < 8);
        o := { lo: x, hi: x + 10, tag: 0 };
        p := { lo: x * 2, hi: x + 20, tag: 1 };
        i := 0;
        acc := 0;
        while (i < 3) {
            lo := o.lo;
            hi := p.hi;
            if (x < i + 2) { acc := acc + lo; } else { acc := acc + hi; }
            o.tag := acc;
            i := i + 1;
        }
        if (acc < 15) { r := o.tag; } else { r := p.tag; }
        return r + acc;
    }
"#;

fn cfg(strategy: SearchStrategy) -> ExploreConfig {
    ExploreConfig {
        strategy,
        ..Default::default()
    }
}

fn path_set(
    paths: impl IntoIterator<Item = (Vec<u32>, String, u64)>,
) -> BTreeSet<(Vec<u32>, String, u64)> {
    paths.into_iter().collect()
}

fn ckpt_path(tag: &str) -> std::path::PathBuf {
    // Under CI the battery writes into GILLIAN_FAULT_ARTIFACTS so a
    // failing run uploads the exact checkpoint bytes that misbehaved.
    let dir = std::env::var("GILLIAN_FAULT_ARTIFACTS")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    dir.join(format!(
        "gillian-while-ckpt-{}-{tag}.bin",
        std::process::id()
    ))
}

#[test]
fn while_heap_survives_kill_and_resume() {
    let prog = compile_program(&parse_program(SOURCE).expect("parse"));
    let solver = Arc::new(Solver::optimized());
    let ctx = StateCtx::new(solver.clone());
    for strategy in [SearchStrategy::Dfs, SearchStrategy::Bfs] {
        let baseline = explore(&prog, "main", St::new(solver.clone()), cfg(strategy));
        assert!(
            !baseline.bounded(),
            "{strategy:?}: baseline must be exhaustive"
        );
        let want = path_set(
            baseline
                .paths
                .iter()
                .map(|p| (p.trace.clone(), p.outcome.kind().to_string(), p.cmds)),
        );
        assert!(want.len() > 4, "{strategy:?}: program too small to test");
        // Kill at a sweep of points deep enough to have live heaps in the
        // frontier; resume must reconstruct the exact path set.
        let mut kills = 0;
        for k in [5u64, 20, 45, 80, 130] {
            let path = ckpt_path(&format!("{strategy:?}-{k}"));
            let mut killed_cfg = cfg(strategy);
            killed_cfg.faults = Some(Arc::new(FaultPlan::seeded(k).kill_at(k)));
            killed_cfg.checkpoint = Some(CheckpointConfig::at(&path));
            let cut = explore(&prog, "main", St::new(solver.clone()), killed_cfg);
            if !cut.killed {
                let got = path_set(
                    cut.paths
                        .iter()
                        .map(|p| (p.trace.clone(), p.outcome.kind().to_string(), p.cmds)),
                );
                assert_eq!(got, want, "{strategy:?} kill@{k}: unkilled run perturbed");
                let _ = std::fs::remove_file(&path);
                continue;
            }
            kills += 1;
            let resumed =
                explore_resume(&prog, &path, &ctx, St::new(solver.clone()), cfg(strategy))
                    .unwrap_or_else(|e| panic!("{strategy:?} kill@{k}: resume failed: {e}"));
            let got = path_set(
                resumed
                    .prior
                    .iter()
                    .map(|p| (p.trace.clone(), p.outcome.clone(), p.cmds))
                    .chain(
                        resumed
                            .result
                            .paths
                            .iter()
                            .map(|p| (p.trace.clone(), p.outcome.kind().to_string(), p.cmds)),
                    ),
            );
            assert_eq!(
                got, want,
                "{strategy:?} kill@{k}: resumed path set differs from baseline"
            );
            assert_eq!(
                resumed.result.total_cmds, baseline.total_cmds,
                "{strategy:?} kill@{k}: command accounting diverged"
            );
            let _ = std::fs::remove_file(&path);
        }
        assert!(kills > 0, "{strategy:?}: no kill ever fired");
    }
}

/// The memory round trip in isolation: save a populated heap through an
/// encoder, reload it, and check cell-for-cell equality (including the
/// intern-id remap — the decoder re-interns every term).
#[test]
fn while_memory_round_trips_cells() {
    use gillian_core::memory::SymbolicMemory;
    use gillian_gil::serial::{ByteReader, Decoder, Encoder};
    use gillian_gil::{Expr, LVar};

    let mut mem = WhileSymMemory::default();
    mem.insert(Expr::int(1), "lo", Expr::lvar(LVar(0)).add(Expr::int(3)));
    mem.insert(Expr::int(1), "hi", Expr::lvar(LVar(1)));
    mem.insert(Expr::lvar(LVar(2)), "tag", Expr::str("t"));

    let mut enc = Encoder::new();
    let mut body = Vec::new();
    mem.save(&mut enc, &mut body).expect("save");
    let mut payload = Vec::new();
    enc.write_table(&mut payload).expect("table");
    payload.extend_from_slice(&body);

    let mut r = ByteReader::new(&payload);
    let dec = Decoder::read_table(&mut r).expect("read table");
    let back = WhileSymMemory::load(&dec, &mut r).expect("load");
    assert!(r.is_empty(), "trailing bytes after memory");
    assert_eq!(back, mem);
}
