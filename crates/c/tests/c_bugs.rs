//! Reproduces the paper's §4.2 bug findings in Collections-C on the
//! seeded buggy library variants. Every finding must come with a verified
//! counter-model and a confirming concrete replay (no false positives,
//! Theorem 3.6).

mod common;

use gillian_c::collections::{buggy, buggy_prog};
use gillian_c::{CConcMemory, CSymMemory};
use gillian_core::explore::ExploreConfig;
use gillian_core::testing::{run_test_with_replay, ReplayStatus};
use gillian_solver::Solver;
use std::sync::Arc;

fn find_bugs(buggy_src: &str, harness: &str) -> Vec<gillian_core::BugReport> {
    let prog = buggy_prog(buggy_src, harness).expect("harness compiles");
    let out = run_test_with_replay::<CSymMemory, CConcMemory>(
        &prog,
        "main",
        Arc::new(Solver::optimized()),
        ExploreConfig::default(),
    );
    out.bugs
}

/// Paper bug 1: "a buffer overflow bug in the implementation of dynamic
/// arrays, caused by an off-by-one index".
#[test]
fn bug1_array_off_by_one_buffer_overflow() {
    let bugs = find_bugs(buggy::ARRAY, common::ARRAY_OFF_BY_ONE);
    assert!(!bugs.is_empty(), "the overflow must be found");
    let bug = &bugs[0];
    assert!(bug.error.contains("out-of-bounds"), "{}", bug.error);
    assert!(bug.confirmed(), "replay: {:?}", bug.replay);
    assert!(matches!(bug.replay, Some(ReplayStatus::ConfirmedError(_))));
}

/// Paper bug 2: "usage of undefined behaviours (pointer comparison, in
/// particular)".
#[test]
fn bug2_ub_pointer_comparison_in_expand() {
    let bugs = find_bugs(buggy::ARRAY, common::ARRAY_EXPAND);
    assert!(!bugs.is_empty());
    assert!(
        bugs[0].error.contains("ub-pointer-comparison"),
        "{}",
        bugs[0].error
    );
    assert!(bugs[0].confirmed());
}

/// Paper bug 3: "several bugs in the concrete test suite: in particular,
/// comparing freed pointers" — the buggy *test* itself is the subject.
#[test]
fn bug3_test_compares_freed_pointers() {
    let bugs = find_bugs(buggy::ARRAY, common::FREED_POINTER_ORDER);
    assert!(!bugs.is_empty());
    assert!(
        bugs[0].error.contains("ub-pointer-comparison"),
        "{}",
        bugs[0].error
    );
    assert!(bugs[0].confirmed());
}

/// Paper bug 4: "over-allocation in the ring-buffer data structure, but
/// with correct behaviour of the associated functions".
#[test]
fn bug4_ring_buffer_over_allocation() {
    // Functional behaviour is correct…
    let functional = find_bugs(buggy::RBUF, common::RBUF_ROUND_TRIP);
    assert!(functional.is_empty(), "rbuf operations stay correct");
    // …but the allocation-size property fails.
    let bugs = find_bugs(buggy::RBUF, common::RBUF_BLOCK_SIZE);
    assert!(!bugs.is_empty(), "the over-allocation must be exposed");
    assert!(bugs[0].confirmed());
}

/// Paper bug 5 (analogue): a silently-degrading comparison — duplicates
/// accumulate while lookups keep returning "serendipitously correct"
/// values; the size invariant exposes it.
#[test]
fn bug5_treetbl_duplicate_insertion() {
    // Lookups still pass…
    let lookups = find_bugs(buggy::TREETBL, common::TREETBL_LOOKUP);
    assert!(lookups.is_empty(), "single-add lookups still work");
    // …but re-adding a key inflates the size.
    let bugs = find_bugs(buggy::TREETBL, common::TREETBL_READD);
    assert!(!bugs.is_empty(), "the duplicate insertion must be exposed");
    assert!(bugs[0].error.contains("assertion failure"));
    assert!(bugs[0].confirmed());
}

/// Classic memory-safety findings the engine must also catch: use after
/// free and double free.
#[test]
fn use_after_free_and_double_free_are_found() {
    let uaf = find_bugs(buggy::ARRAY, common::USE_AFTER_FREE);
    assert!(uaf.iter().any(|b| b.error.contains("use-after-free")));
    assert!(uaf[0].confirmed());

    let df = find_bugs(buggy::ARRAY, common::DOUBLE_FREE);
    assert!(df.iter().any(|b| b.error.contains("double-free")));
    assert!(df[0].confirmed());
}

/// Differential soundness, end to end, over real library code: every
/// modelled symbolic path replays concretely to the same outcome
/// (Theorem 3.6 on the Collections workload).
#[test]
fn restricted_soundness_on_collections_workloads() {
    use gillian_core::soundness::check_program;
    let sources = [
        r#"
        long main() {
            long x = symb_long();
            struct Array *ar = array_new(2);
            array_add(ar, x);
            array_add(ar, x + 1);
            array_add(ar, x + 2);
            long *out = malloc(sizeof(long));
            array_get_at(ar, 1, out);
            long v = *out;
            free(out);
            array_destroy(ar);
            return v;
        }
        "#,
        r#"
        long main() {
            long i = symb_long();
            assume(i >= 0 && i < 2);
            struct Array *ar = array_new(2);
            array_add(ar, 10);
            array_add(ar, 20);
            long *out = malloc(sizeof(long));
            array_get_at(ar, i, out);
            long v = *out;
            free(out);
            array_destroy(ar);
            return v;
        }
        "#,
    ];
    let lib: String = gillian_c::collections::LIB_SOURCES
        .iter()
        .map(|(_, s)| *s)
        .collect::<Vec<_>>()
        .join("\n");
    for harness in sources {
        let mut module = gillian_c::parse_unit(&lib).unwrap();
        module.extend(gillian_c::parse_unit(harness).unwrap());
        let prog = gillian_c::compile_unit(&module).unwrap();
        let report = check_program::<CSymMemory, CConcMemory>(
            &prog,
            "main",
            Arc::new(Solver::optimized()),
            ExploreConfig::default(),
        )
        .unwrap_or_else(|d| panic!("soundness violated: {d:#?}"));
        assert!(report.replayed > 0, "no path was replayed");
    }
}
