//! Scale probe: long-running symbolic workloads in all three languages,
//! demonstrating that the engine sustains large GIL command counts (the
//! paper's Table 1 runs ~14M commands; this probe runs hundreds of
//! thousands in seconds and scales linearly with the workload size).
//!
//! Run with: `cargo run --release --example stress`
//!
//! The final sections run a branch-heavy workload under a deadline too
//! tight to finish, then killed and resumed from a checkpoint, and print
//! the uninterrupted run's exploration profile.
//!
//! Every run honours the `GILLIAN_*` run variables (`GILLIAN_TRACE`,
//! `GILLIAN_TRACE_CHROME`, `GILLIAN_FOLDED`, `GILLIAN_LIVE`; see
//! `gillian_bench::explore_config_from_env`).

use gillian::core::checkpoint::StateCtx;
use gillian::core::explore::{explore, ExploreConfig};
use gillian::core::faults::FaultPlan;
use gillian::core::symbolic::SymbolicState;
use gillian::core::{explore_resume, CheckpointConfig};
use gillian::while_lang::{compile_program, parse_program, WhileSymMemory};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fresh run configuration with the environment's run plumbing.
fn config() -> ExploreConfig {
    gillian_bench::explore_config_from_env(ExploreConfig::default())
}

fn probe(name: &str, run: impl FnOnce() -> (u64, usize, bool)) {
    let start = Instant::now();
    let (cmds, paths, ok) = run();
    let dt = start.elapsed();
    let rate = cmds as f64 / dt.as_secs_f64().max(1e-9);
    println!(
        "{name:<22} {cmds:>10} cmds {paths:>5} paths {:>8.2?}  ({rate:>12.0} cmds/s)  verified={ok}",
        dt
    );
}

fn main() {
    // While: a triangular-number loop over a large concrete bound with a
    // symbolic seed.
    probe("while/triangular", || {
        let out = gillian::while_lang::symbolic_test_with(
            r#"
            proc main() {
                s := symb();
                assume (0 <= s and s <= 2);
                total := s;
                i := 0;
                while (i < 400) {
                    i := i + 1;
                    total := total + i;
                }
                assert (total = s + 80200);
                return total;
            }
        "#,
            "main",
            config(),
        )
        .unwrap();
        (out.gil_cmds(), out.result.paths.len(), out.verified())
    });

    // MiniJS: push/pop churn through the Buckets stack (every operation
    // goes through the dynamic runtime, multiplying the command count).
    probe("minijs/stack churn", || {
        let src = format!(
            "{}\n{}\n{}",
            gillian::js::buckets::LIB_SOURCES
                .iter()
                .map(|(_, s)| *s)
                .collect::<Vec<_>>()
                .join("\n"),
            "",
            r#"
            function main() {
                var seed = symb_number();
                var s = stackNew();
                for (var i = 0; i < 120; i = i + 1) {
                    s.push(seed + i);
                }
                for (var j = 0; j < 60; j = j + 1) {
                    s.pop();
                }
                assert(s.size() === 60);
                assert(s.peek() === seed + 59);
                return s.size();
            }
            "#
        );
        let out = gillian::js::symbolic_test_with(&src, "main", config()).unwrap();
        (out.gil_cmds(), out.result.paths.len(), out.verified())
    });

    // MiniC: byte-level heap churn through the Collections dynamic array,
    // with repeated capacity doublings (malloc + memcpy + free).
    probe("minic/array growth", || {
        let src = format!(
            "{}\n{}",
            gillian::c::collections::LIB_SOURCES
                .iter()
                .map(|(_, s)| *s)
                .collect::<Vec<_>>()
                .join("\n"),
            r#"
            long main() {
                long seed = symb_long();
                struct Array *ar = array_new(1);
                for (long i = 0; i < 200; i = i + 1) {
                    array_add(ar, seed + i);
                }
                long *out = malloc(sizeof(long));
                array_get_at(ar, 199, out);
                assert(*out == seed + 199);
                assert(array_size(ar) == 200);
                long v = *out;
                free(out);
                array_destroy(ar);
                return v;
            }
            "#
        );
        let out = gillian::c::symbolic_test_with(&src, "main", config()).unwrap();
        (out.gil_cmds(), out.result.paths.len(), out.verified())
    });

    // A branch-heavy While workload: ten independent symbolic branches →
    // 1024 paths, each with real loop work.
    let wide_src = {
        let mut body = String::new();
        for i in 0..10 {
            body.push_str(&format!(
                "b{i} := symb(); t{i} := 0; \
                 if (b{i} > 0) {{ t{i} := 1; }} else {{ t{i} := 2; }}\n"
            ));
        }
        format!(
            r#"
            proc main() {{
                {body}
                acc := 0;
                i := 0;
                while (i < 50) {{
                    i := i + 1;
                    acc := acc + i;
                }}
                assert (acc = 1275);
                return acc;
            }}
            "#
        )
    };

    // Resilience probe: the same wide workload under a deadline too tight
    // to finish. The run must come back promptly, marked truncated, with
    // the overrun counted in the diagnostics — not hang or panic.
    let tight = Duration::from_millis(5);
    let start = Instant::now();
    let cfg = config().with_deadline(tight);
    let out = gillian::while_lang::symbolic_test_with(&wide_src, "main", cfg).unwrap();
    let dt = start.elapsed();
    assert!(
        !out.verified(),
        "an out-of-time run must not claim verified"
    );
    assert!(out.bounded());
    let d = out.result.diagnostics;
    println!(
        "deadline/wide          {tight:>8.2?} budget: returned in {dt:>8.2?}, \
         {} paths, deadline_hits={}, bounded={}",
        out.result.paths.len(),
        d.deadline_hits,
        out.bounded()
    );

    // Crash-safety probe: the same wide workload, killed mid-run by the
    // deterministic fault harness with a checkpoint armed, then resumed
    // from the file. The union of paths finished before the kill and
    // paths explored after resume must equal the uninterrupted run.
    type St = SymbolicState<WhileSymMemory>;
    let prog = compile_program(&parse_program(&wide_src).expect("parse wide workload"));
    let solver = Arc::new(gillian::solver::Solver::optimized());
    let baseline = explore(&prog, "main", St::new(solver.clone()), config());
    assert!(
        baseline.errors().next().is_none() && !baseline.truncated,
        "wide workload must verify"
    );

    let ckpt = std::env::temp_dir().join(format!("gillian-stress-{}.ckpt", std::process::id()));
    let mut kill_cfg = config();
    kill_cfg.faults = Some(Arc::new(FaultPlan::seeded(7).kill_at(4000)));
    kill_cfg.checkpoint = Some(CheckpointConfig::at(&ckpt));
    let start = Instant::now();
    let cut = explore(&prog, "main", St::new(solver.clone()), kill_cfg);
    assert!(cut.killed, "the injected kill must fire mid-run");

    let resumed = explore_resume(
        &prog,
        &ckpt,
        &StateCtx::new(solver.clone()),
        St::new(solver.clone()),
        config(),
    )
    .expect("resume from checkpoint");
    let dt = start.elapsed();
    assert_eq!(
        resumed.prior.len() + resumed.result.paths.len(),
        baseline.paths.len(),
        "prior ∪ resumed must cover the uninterrupted path set"
    );
    assert_eq!(
        resumed.result.total_cmds, baseline.total_cmds,
        "command accounting must survive the crash"
    );
    let _ = std::fs::remove_file(&ckpt);
    println!(
        "crash/resume           {:>10} cmds {:>5} paths  kill+resume {dt:>8.2?}  \
         ({} finished pre-kill, {} post-resume)",
        resumed.result.total_cmds,
        baseline.paths.len(),
        resumed.prior.len(),
        resumed.result.paths.len(),
    );

    // Hash-consing telemetry: the cumulative interner picture after every
    // probe above, plus the slice attributed to the uninterrupted wide run
    // alone (from its diagnostics delta).
    let total = gillian::gil::InternStats::snapshot();
    println!("interner/total         {total}");
    println!("interner/wide-run      {}", baseline.diagnostics.interner);

    // Exploration profile of the uninterrupted wide run: per-run metric
    // deltas, branch-tree shape, and — when `GILLIAN_TRACE` or
    // `GILLIAN_TRACE_CHROME` is set — the slowest sat queries and the
    // per-language action latency table from the event journal.
    println!("\n{}", baseline.report.render());
}
