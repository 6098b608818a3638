//! Regression test for interner-stat attribution
//! ([`ExploreDiagnostics::interner`]).
//!
//! The interner's counters are process-global. The engine used to
//! attribute a run's activity by diffing *global* snapshots around the
//! run, which folds in every other thread minting terms concurrently.
//! The fix attributes via the calling thread's **thread-local** delta
//! (the run measures only itself); this test pins that down
//! by hammering the interner from an unrelated thread for the entire
//! duration of a run and asserting the noise does not leak into the
//! run's diagnostics.

mod common;

use common::{build_prog, state, Op};
use gillian_core::explore::{explore, ExploreConfig};
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

fn run_with_background_noise() -> (InternStats, u64) {
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
    let r = explore(&prog, "main", state(), ExploreConfig::default());
    stop.store(true, Ordering::Relaxed);
    let minted = noise.join().expect("noise thread");
    assert_eq!(r.paths.len(), 256);
    (r.diagnostics.interner, minted)
}

#[test]
fn serial_interner_stats_ignore_other_threads() {
    let (attributed, noise_mints) = run_with_background_noise();
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
