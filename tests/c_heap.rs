//! Smoke-sized copies of the MiniC heap batteries
//! (`crates/c/tests/heap_equiv.rs`), so that the root package's tests
//! cover the C heap: literal fast paths against the general path, and
//! the symbolic heap against the concrete one.

#[path = "../crates/c/tests/heap_props/mod.rs"]
mod heap_props;

use heap_props::{arb_action, coded_matches_general, symbolic_matches_concrete};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn c_coded_actions_match_the_general_path(
        actions in proptest::collection::vec((arb_action(true), any::<bool>()), 1..12),
        pc in 0u8..4,
    ) {
        coded_matches_general(actions, pc)?;
    }

    #[test]
    fn c_symbolic_heap_matches_the_concrete_heap(
        actions in proptest::collection::vec(arb_action(false), 1..16),
    ) {
        symbolic_matches_concrete(actions)?;
    }
}
