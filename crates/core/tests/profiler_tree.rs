//! Exploration-profiler properties (DESIGN.md §16):
//!
//! 1. **Schedule independence** — the exploration tree reconstructed
//!    from the merged journal depends only on the program: 1 worker and
//!    4 workers produce the same node set, fork arms, outcomes, leaf
//!    counts, command attribution, and folded-stack keys. Only the
//!    timing numbers may differ.
//! 2. **Folded-stacks coverage** — on a fixed-seed generated program,
//!    every finished path's branch trace appears as a folded stack, and
//!    the folded sink writes a parseable `stack value` line per key.
//!
//! Journals are installed explicitly on [`ExploreConfig`] — never via
//! `GILLIAN_TRACE` (the env is read once per process and would leak
//! across parallel test binaries).

mod common;

use common::{state, Op};
use gillian_core::explore::{explore, explore_with, ExploreConfig};
use gillian_core::generate::{gen_ops, MemDialect, Rng};
use gillian_telemetry::{EventRecord, ExploreTree, Journal};

/// An eight-way branching program: 2^8 paths with forks at every level.
fn wide_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..8u8 {
        ops.push(Op::Sym);
        ops.push(Op::Branch(i, 1));
    }
    ops
}

fn run_journaled(prog: &gillian_gil::Prog, workers: usize) -> (usize, Vec<EventRecord>) {
    let journal = Journal::enabled();
    let cfg = ExploreConfig {
        workers,
        journal: journal.clone(),
        ..Default::default()
    };
    let r = if workers > 1 {
        explore_with(prog, "main", state(), cfg)
    } else {
        explore(prog, "main", state(), cfg)
    };
    (r.paths.len(), journal.last_run().to_vec())
}

/// The timing-independent shape of one profile-tree node: its path,
/// fork arms, outcome tag, finished-leaf count, and attributed commands.
type NodeShape = (Vec<u32>, u32, Option<&'static str>, u64, u64);

fn shape(tree: &ExploreTree) -> Vec<NodeShape> {
    tree.nodes()
        .map(|(path, node)| {
            (
                path.to_vec(),
                node.arms,
                node.outcome,
                node.leaves,
                node.excl.step_cmds,
            )
        })
        .collect()
}

#[test]
fn profile_tree_is_schedule_independent() {
    let prog = common::build_prog(&wide_ops());
    let (paths1, serial) = run_journaled(&prog, 1);
    let (paths4, par) = run_journaled(&prog, 4);
    assert_eq!(paths1, 256);
    assert_eq!(paths4, 256);
    let t1 = ExploreTree::from_records(&serial);
    let t4 = ExploreTree::from_records(&par);
    assert_eq!(
        shape(&t1),
        shape(&t4),
        "tree structure and command attribution must not depend on scheduling"
    );
    assert_eq!(
        t1.folded_keys(),
        t4.folded_keys(),
        "folded stacks must not depend on scheduling"
    );
    assert_eq!(t1.unattributed, 0, "all events must land on tree nodes");
    assert_eq!(t4.unattributed, 0, "all events must land on tree nodes");
    // Exclusive time only exists where commands ran; inclusive rollups
    // are monotone up the tree.
    let root = t1.node(&[]).expect("root node");
    assert!(root.incl.step_cmds >= root.excl.step_cmds);
    assert_eq!(root.leaves, 256, "every finished path rolls up to the root");
}

#[test]
fn folded_stacks_cover_generated_program_and_export_parses() {
    // Fixed-seed generated program (pure dialect: no memory model needed).
    const SEED: u64 = 0x90F1_13E5;
    let ops = gen_ops(&mut Rng::new(SEED), 14, MemDialect::None);
    let prog = gillian_core::generate::build_prog(&ops, MemDialect::None);

    let folded_path = std::env::temp_dir().join(format!(
        "gillian-profiler-test-{}.folded",
        std::process::id()
    ));
    let folded_str = folded_path.to_str().expect("utf-8 temp path").to_string();
    let _ = std::fs::remove_file(&folded_path);

    let journal = Journal::enabled().with_folded_sink(folded_str.clone());
    let cfg = ExploreConfig {
        journal: journal.clone(),
        ..Default::default()
    };
    let r = explore(&prog, "main", state(), cfg);
    assert!(!r.paths.is_empty());
    let tree = ExploreTree::from_records(&journal.last_run());

    // Every finished path's branch trace is a node with an outcome.
    for p in &r.paths {
        let node = tree
            .node(&p.trace)
            .unwrap_or_else(|| panic!("path {:?} missing from the tree", p.trace));
        assert!(
            node.outcome.is_some(),
            "finished path must carry an outcome"
        );
    }
    // The run is single-proc, so every folded key ends in `main` and the
    // key set is exactly the per-node stack set (deterministic re-run).
    let keys = tree.folded_keys();
    assert!(!keys.is_empty());
    for k in &keys {
        assert!(k.starts_with("(root)"), "folded key {k:?} must be rooted");
        assert!(
            k.ends_with(";main"),
            "folded key {k:?} must end in the proc"
        );
    }
    let journal2 = Journal::enabled();
    let cfg2 = ExploreConfig {
        journal: journal2.clone(),
        ..Default::default()
    };
    let _ = explore(&prog, "main", state(), cfg2);
    let tree2 = ExploreTree::from_records(&journal2.last_run());
    assert_eq!(
        keys,
        tree2.folded_keys(),
        "folded keys must be deterministic"
    );

    // The folded sink wrote one `stack value` line per key, newline-
    // terminated — the format inferno/speedscope ingest.
    let text = std::fs::read_to_string(&folded_path).expect("folded file written");
    assert!(text.ends_with('\n'));
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), keys.len());
    for line in &lines {
        let (stack, value) = line.rsplit_once(' ').expect("`stack value` format");
        assert!(stack.starts_with("(root)"));
        value.parse::<u64>().expect("folded value must be integral");
    }
    let _ = std::fs::remove_file(&folded_path);
}
