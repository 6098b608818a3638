//! Regression test for interner-stat attribution
//! ([`ExploreDiagnostics::interner`]).
//!
//! The interner's counters are process-global. The engines used to
//! attribute a run's activity by diffing *global* snapshots around the
//! run, which folds in every other thread minting terms concurrently —
//! and, for the parallel engine, double-counts when per-worker global
//! diffs are summed. The fix attributes via **thread-local** deltas
//! (each engine thread measures only itself); this test pins that down
//! by hammering the interner from an unrelated thread for the entire
//! duration of a run and asserting the noise does not leak into the
//! run's diagnostics.

mod common;

use common::{build_prog, state, Op};
use gillian_core::explore::{explore, explore_with, ExploreConfig};
use gillian_gil::{Expr, InternStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Mints unique terms on the calling thread until `stop` — with a floor
/// of `min` mints so some overlap with the measured run is guaranteed
/// even under extreme scheduling. Values start far outside anything the
/// explored program interns.
fn mint_noise(stop: &AtomicBool, min: u64) -> u64 {
    let base = 1i64 << 40;
    let mut minted = 0u64;
    while minted < min || !stop.load(Ordering::Relaxed) {
        // A batch between stop checks; each int is unique, so each is a
        // fresh mint.
        for _ in 0..10_000 {
            let _ = Expr::int(base + minted as i64);
            minted += 1;
        }
        if minted >= 5_000_000 {
            break; // hard cap: never spin forever if the run wedges
        }
    }
    minted
}

fn branching_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..8u8 {
        ops.push(Op::Sym);
        ops.push(Op::Branch(i, 1));
        ops.push(Op::Bump(i as i64));
    }
    ops
}

fn run_with_background_noise(workers: usize) -> (InternStats, u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(2));
    let noise = {
        let stop = stop.clone();
        let start = start.clone();
        std::thread::spawn(move || {
            start.wait();
            mint_noise(&stop, 100_000)
        })
    };
    start.wait();
    let prog = build_prog(&branching_ops());
    let cfg = ExploreConfig {
        workers,
        ..Default::default()
    };
    let r = if workers > 1 {
        explore_with(&prog, "main", state(), cfg)
    } else {
        explore(&prog, "main", state(), cfg)
    };
    stop.store(true, Ordering::Relaxed);
    let minted = noise.join().expect("noise thread");
    assert_eq!(r.paths.len(), 256, "workers={workers}");
    (r.diagnostics.interner, minted)
}

#[test]
fn serial_interner_stats_ignore_other_threads() {
    let (attributed, noise_mints) = run_with_background_noise(1);
    assert!(noise_mints >= 100_000, "noise thread minted {noise_mints}");
    assert!(
        attributed.mints < 50_000,
        "run attributed {} mints — background noise leaked in (noise minted {noise_mints})",
        attributed.mints
    );
    // The sibling test may intern the same terms first, leaving this run
    // only hits: its own traffic shows as mints or hits.
    assert!(
        attributed.mints + attributed.hits > 0,
        "the run's own interning must still be visible"
    );
}

#[test]
fn parallel_interner_stats_ignore_other_threads_and_do_not_double_count() {
    let (serial, _) = run_with_background_noise(1);
    let (par, noise_mints) = run_with_background_noise(4);
    assert!(
        par.mints < 50_000,
        "parallel run attributed {} mints — noise leaked in (noise minted {noise_mints})",
        par.mints
    );
    // Worker deltas are summed, never multiplied: the parallel run's own
    // traffic is the same order of magnitude as the serial run's (it
    // interns the same terms, modulo hash-cons hit/mint races between
    // workers), not `workers`× the global delta.
    let serial_total = serial.mints + serial.hits;
    let par_total = par.mints + par.hits;
    assert!(
        par_total <= serial_total * 2,
        "parallel attribution ({par_total}) blew past serial ({serial_total}) — double counting?"
    );
}
