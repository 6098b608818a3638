//! Serial exploration order, pinned against a committed fixture.
//!
//! The equivalence batteries compare order-normalized path sets under
//! budgets that never bind, so they cannot see *which* paths a binding
//! budget keeps, or the order one worker explores them in. This test can:
//! twenty fixed branching programs, each explored by one worker under
//! DFS and BFS, with no binding budget and with each budget made to bind
//! in turn (`max_paths`, `max_total_cmds`, `max_cmds_per_path`,
//! `max_pending`). For every run it records the `(trace, outcome kind,
//! cmds)` sequence of its paths, `total_cmds`, `dropped_paths`,
//! `truncated`, and the guarantee counters of its diagnostics (deadline
//! hits, cancellations, engine errors, unknown verdicts), and compares
//! them with `fixtures/serial_order.txt`.
//!
//! Regenerate the fixture only when a change to the order is intended:
//!
//! ```sh
//! cargo test -p gillian-core --test serial_order -- --ignored regenerate_fixture
//! ```

mod common;

use common::{build_prog, state, Op};
use gillian_core::explore::{explore, ExploreConfig, SearchStrategy};
use gillian_telemetry::Journal;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/serial_order.txt";

/// Twenty fixed op lists from a small xorshift generator: deterministic,
/// independent of the proptest shim, and branchy enough that every
/// budget below binds on most of them.
fn programs() -> Vec<Vec<Op>> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    (0..20)
        .map(|_| {
            let len = 3 + next(8);
            (0..len)
                .map(|_| {
                    let v = next(4) as u8;
                    let c = next(7) as i64 - 3;
                    match next(9) {
                        0 | 1 => Op::Sym,
                        2..=4 => Op::Branch(v, c),
                        5 => Op::Bump(c),
                        6 => Op::Assume(v, c.abs()),
                        _ => Op::FailIf(v, c),
                    }
                })
                .collect()
        })
        .collect()
}

/// The budget legs: one that never binds, then each limit made small.
fn budgets() -> Vec<(&'static str, ExploreConfig)> {
    let base = ExploreConfig {
        workers: 1,
        journal: Journal::disabled(),
        bytecode: Some(true),
        summaries: Some(false),
        ..Default::default()
    };
    vec![
        ("unbounded", base.clone()),
        (
            "max_paths=3",
            ExploreConfig {
                max_paths: 3,
                ..base.clone()
            },
        ),
        (
            "max_total_cmds=12",
            ExploreConfig {
                max_total_cmds: 12,
                ..base.clone()
            },
        ),
        (
            "max_cmds_per_path=5",
            ExploreConfig {
                max_cmds_per_path: 5,
                ..base.clone()
            },
        ),
        (
            "max_pending=1",
            ExploreConfig {
                max_pending: Some(1),
                ..base
            },
        ),
    ]
}

/// Every run's record, keyed by `program/strategy/budget`.
fn render_all() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (i, ops) in programs().iter().enumerate() {
        let prog = build_prog(ops);
        for strategy in [SearchStrategy::Dfs, SearchStrategy::Bfs] {
            for (name, cfg) in budgets() {
                let r = explore(&prog, "main", state(), ExploreConfig { strategy, ..cfg });
                let d = r.diagnostics;
                let mut text = format!(
                    "total_cmds={} dropped_paths={} truncated={} deadline_hits={} \
                     cancellations={} engine_errors={} unknown_verdicts={}\n",
                    r.total_cmds,
                    r.dropped_paths,
                    r.truncated,
                    d.deadline_hits,
                    d.cancellations,
                    d.engine_errors,
                    d.unknown_verdicts,
                );
                for p in &r.paths {
                    writeln!(text, "  {:?} {} {}", p.trace, p.outcome.kind(), p.cmds)
                        .expect("write to string");
                }
                out.insert(format!("prog{i:02}/{strategy:?}/{name}"), text);
            }
        }
    }
    out
}

/// The on-disk form: `== key` headers, each followed by its record.
fn to_fixture(runs: &BTreeMap<String, String>) -> String {
    runs.iter().map(|(k, v)| format!("== {k}\n{v}")).collect()
}

fn from_fixture(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for block in text.split("== ").filter(|b| !b.is_empty()) {
        let (key, body) = block.split_once('\n').expect("fixture block header");
        out.insert(key.to_string(), body.to_string());
    }
    out
}

#[test]
fn serial_order_matches_the_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let text = std::fs::read_to_string(&path).expect("serial-order fixture");
    let want = from_fixture(&text);
    let got = render_all();
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "the fixture covers a different set of runs"
    );
    for (key, record) in &got {
        assert_eq!(
            record, &want[key],
            "{key}: serial run diverged from the fixture"
        );
    }
}

/// Every budget leg must actually bind somewhere, or the fixture pins
/// less than it claims.
#[test]
fn every_budget_leg_binds() {
    let runs = render_all();
    for (name, _) in budgets().into_iter().skip(1) {
        assert!(
            runs.iter()
                .any(|(k, v)| k.ends_with(name) && v.contains("truncated=true")),
            "{name} never binds"
        );
    }
}

#[test]
#[ignore = "rewrites the fixture; run by hand when the order is meant to change"]
fn regenerate_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    std::fs::write(&path, to_fixture(&render_all())).expect("write fixture");
}
