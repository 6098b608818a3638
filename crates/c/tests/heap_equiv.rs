//! The MiniC heap batteries at CI size (`PROPTEST_CASES` overrides the
//! case counts): literal fast paths against the general path, and the
//! symbolic heap against the concrete one. See `heap_props`.

mod heap_props;

use heap_props::{arb_action, coded_matches_general, symbolic_matches_concrete};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn coded_actions_match_the_general_path(
        actions in proptest::collection::vec((arb_action(true), any::<bool>()), 1..12),
        pc in 0u8..4,
    ) {
        coded_matches_general(actions, pc)?;
    }

    #[test]
    fn symbolic_heap_matches_the_concrete_heap(
        actions in proptest::collection::vec(arb_action(false), 1..16),
    ) {
        symbolic_matches_concrete(actions)?;
    }
}
