//! CI bench smoke for the term-representation refactor: runs the Table 1
//! and Table 2 workloads on their normal budgets plus the `difftest`
//! differential-oracle workload, and emits `BENCH_repr.json` with
//! throughput (paths/sec), peak RSS, and interner hit rate, so the perf
//! trajectory has machine-readable data points.
//!
//! The JSON also records the **pre-refactor baseline**: internal suite
//! totals measured at commit `e38629e` (the last commit before terms
//! were hash-consed), as the average of 10 runs interleaved with the
//! refactored binaries in the same shell loop on the same machine, so
//! both sides saw identical machine conditions. The `speedup_vs_baseline`
//! ratios are therefore exact on that machine and indicative elsewhere:
//! on a different machine the measured side moves but the recorded
//! baseline does not. Set `BENCH_SMOKE_STRICT=1` to make the process
//! fail unless both ratios clear 1.5x (off by default so CI on unknown
//! hardware stays a smoke test, not a flaky perf gate).
//!
//! Output path: `BENCH_repr.json` in the current directory, or the path
//! in `BENCH_REPR_OUT`.
//!
//! Solver A/B: `GILLIAN_INCREMENTAL=0` disables the incremental
//! per-prefix contexts (see [`gillian_bench::solver_from_env`]), so
//! before/after throughput comparisons need no rebuild.
//!
//! Bytecode: the `compile_cost` workload prices the one-shot bytecode
//! compilation of every suite program eagerly (the engine amortizes it
//! lazily per procedure).
//!
//! Crash safety: `GILLIAN_CHECKPOINT=path.bin` arms frontier
//! checkpointing for every workload (interruption-triggered by default;
//! `GILLIAN_CHECKPOINT_EVERY_MS` adds periodic writes), and the
//! `checkpoint_250ms` workload measures what an armed 250 ms interval
//! costs against a checkpointing-off control on the same battery.
//!
//! Telemetry: the run always prints the process-level exploration
//! profile (metric deltas over both workloads). Set
//! `BENCH_TELEMETRY_GATE=1` to additionally assert that the measured
//! paths/sec stays within 3% of the throughput recorded in the
//! committed `BENCH_repr.json` (path override: `BENCH_REPR_BASELINE`) —
//! the sinks-off overhead guard for the telemetry layer.

use gillian_core::testing::TestSuiteResult;
use gillian_gil::intern::InternStats;
use gillian_telemetry::{registry, Report};
use std::fmt::Write as _;

/// Commit the baseline numbers were measured at (pre-refactor HEAD).
const BASELINE_COMMIT: &str = "e38629e";
/// Internal Table 1 total, optimized solver config, at the baseline.
const BASELINE_T1_SECS: f64 = 0.144;
/// Internal Table 2 total at the baseline.
const BASELINE_T2_SECS: f64 = 0.088;

struct Workload {
    name: &'static str,
    tests: usize,
    gil_cmds: u64,
    paths: usize,
    secs: f64,
    /// Pre-refactor total, where one exists. `None` for workloads that
    /// postdate the baseline commit (the `difftest` oracle workload).
    baseline_secs: Option<f64>,
}

impl Workload {
    fn paths_per_sec(&self) -> f64 {
        self.paths as f64 / self.secs.max(1e-9)
    }

    /// Speedup in paths/sec vs the recorded baseline. Path counts are
    /// identical on both sides (the refactor is engine-equivalent), so
    /// the throughput ratio reduces to a time ratio.
    fn speedup(&self) -> Option<f64> {
        self.baseline_secs.map(|b| b / self.secs.max(1e-9))
    }
}

fn accumulate(
    name: &'static str,
    baseline_secs: f64,
    rows: impl IntoIterator<Item = TestSuiteResult>,
) -> Workload {
    let mut w = Workload {
        name,
        tests: 0,
        gil_cmds: 0,
        paths: 0,
        secs: 0.0,
        baseline_secs: Some(baseline_secs),
    };
    for row in rows {
        assert!(
            row.failures.is_empty() && row.truncated.is_empty() && row.errored.is_empty(),
            "suite {} did not verify cleanly",
            row.name
        );
        w.tests += row.tests;
        w.gil_cmds += row.gil_cmds;
        w.paths += row.paths;
        w.secs += row.time.as_secs_f64();
    }
    w
}

fn run_table1() -> Workload {
    let cfg = gillian_core::ExploreConfig {
        checkpoint: gillian_bench::checkpoint_from_env(),
        ..gillian_bench::explore_config_from_env(gillian_js::buckets::table1_config())
    };
    accumulate(
        "table1",
        BASELINE_T1_SECS,
        gillian_js::buckets::suite_names()
            .into_iter()
            .map(|s| gillian_js::buckets::run_row(s, gillian_bench::solver_from_env, cfg.clone())),
    )
}

fn run_table2() -> Workload {
    let cfg = gillian_core::ExploreConfig {
        checkpoint: gillian_bench::checkpoint_from_env(),
        ..gillian_bench::explore_config_from_env(gillian_c::collections::table2_config())
    };
    accumulate(
        "table2",
        BASELINE_T2_SECS,
        gillian_c::collections::suite_names().into_iter().map(|s| {
            gillian_c::collections::run_row(s, gillian_bench::solver_from_env, cfg.clone())
        }),
    )
}

/// The `compile_cost` workload: the one-shot price of compiling every
/// table1 + table2 suite program to register bytecode — the work the
/// engine's lazy per-procedure compile spreads across a run, forced
/// eagerly here so the JSON records its full magnitude. `tests` counts
/// suite programs, `paths` compiled procedures, `gil_cmds` compiled
/// instructions; parsing and GIL generation are excluded from the timed
/// section (they are priced in the table rows, not here). No
/// pre-bytecode baseline exists, so `baseline_secs` is null.
fn run_compile_cost() -> Workload {
    let mut progs: Vec<gillian_gil::Prog> = Vec::new();
    for s in gillian_js::buckets::suite_names() {
        progs.push(gillian_js::buckets::suite_prog(s).0);
    }
    for s in gillian_c::collections::suite_names() {
        progs.push(
            gillian_c::collections::suite_prog(s)
                .expect("table2 suite compiles")
                .0,
        );
    }
    let mut w = Workload {
        name: "compile_cost",
        tests: progs.len(),
        gil_cmds: 0,
        paths: 0,
        secs: 0.0,
        baseline_secs: None,
    };
    let started = std::time::Instant::now();
    for prog in &progs {
        let compiled = gillian_gil::compile::compile(prog);
        for proc in prog.iter() {
            let pid = compiled.pid(&proc.name).expect("every proc has a pid");
            w.gil_cmds += compiled.by_pid(pid).body.len() as u64;
            w.paths += 1;
        }
    }
    w.secs = started.elapsed().as_secs_f64();
    w
}

/// The `difftest` workload: a fixed-seed slice of the differential
/// battery over the While instantiation — each generated program is
/// explored symbolically, then every path is witness-concretized and
/// replayed through the concrete state constructor with the final
/// memories compared under `I_W`. `paths` counts concrete replays (the
/// oracle's unit of work); any divergence aborts the bench.
fn run_difftest() -> Workload {
    use gillian_core::difftest::{run_differential_with, InterpMemoryCheck};
    use gillian_core::generate::{build_prog, gen_ops, MemDialect, Rng};
    use gillian_while::{WhileConcMemory, WhileInterpretation, WhileSymMemory};

    const SEED: u64 = 0x9E37_79B9;
    const PROGRAMS: usize = 60;
    let solver = std::sync::Arc::new(gillian_bench::solver_from_env());
    let cfg = gillian_core::ExploreConfig {
        journal: gillian_telemetry::Journal::disabled(),
        checkpoint: gillian_bench::checkpoint_from_env(),
        ..gillian_bench::explore_config_from_env(Default::default())
    };
    let memcheck = InterpMemoryCheck(WhileInterpretation);
    let mut w = Workload {
        name: "difftest",
        tests: PROGRAMS,
        gil_cmds: 0,
        paths: 0,
        secs: 0.0,
        baseline_secs: None,
    };
    let started = std::time::Instant::now();
    for i in 0..PROGRAMS as u64 {
        let ops = gen_ops(&mut Rng::new(SEED + i), 14, MemDialect::While);
        let prog = build_prog(&ops, MemDialect::While);
        let report = run_differential_with::<WhileSymMemory, WhileConcMemory, _>(
            &prog,
            "main",
            solver.clone(),
            cfg.clone(),
            &memcheck,
        );
        assert!(
            report.agreed(),
            "difftest workload diverged at seed {}: {:?}",
            SEED + i,
            report.divergences
        );
        w.gil_cmds += report.sym_cmds;
        w.paths += report.replayed;
    }
    w.secs = started.elapsed().as_secs_f64();
    w
}

/// The off-vs-on legs of the checkpoint-overhead measurement.
struct CheckpointOverhead {
    off_secs: f64,
    on_secs: f64,
    writes: u64,
}

impl CheckpointOverhead {
    fn overhead_pct(&self) -> f64 {
        100.0 * (self.on_secs / self.off_secs.max(1e-9) - 1.0)
    }
}

/// The `checkpoint_250ms` workload: a fixed-seed battery of generated
/// While programs explored twice in one process — checkpointing off,
/// then with a 250 ms interval checkpoint to a temp file — so the JSON
/// records what arming crash-safe checkpointing costs on this machine.
/// Both legs must produce identical path and command counts (checkpoint
/// writes are observationally transparent); the reported workload row is
/// the checkpointed leg.
fn run_checkpoint_overhead() -> (Workload, CheckpointOverhead) {
    use gillian_core::generate::{build_prog, gen_ops, MemDialect, Rng};
    use gillian_core::symbolic::SymbolicState;
    use gillian_core::CheckpointConfig;
    use gillian_telemetry::names;
    use gillian_while::WhileSymMemory;

    const SEED: u64 = 0xC4E0_0F5E;
    const PROGRAMS: usize = 40;
    let solver = std::sync::Arc::new(gillian_bench::solver_from_env());
    let path = std::env::temp_dir().join(format!("gillian-bench-ckpt-{}.bin", std::process::id()));
    let leg = |checkpoint: Option<CheckpointConfig>| -> (usize, u64, f64) {
        let started = std::time::Instant::now();
        let (mut paths, mut cmds) = (0usize, 0u64);
        for i in 0..PROGRAMS as u64 {
            let ops = gen_ops(&mut Rng::new(SEED + i), 14, MemDialect::While);
            let prog = build_prog(&ops, MemDialect::While);
            let cfg = gillian_core::ExploreConfig {
                journal: gillian_telemetry::Journal::disabled(),
                checkpoint: checkpoint.clone(),
                ..gillian_bench::explore_config_from_env(Default::default())
            };
            let result = gillian_core::explore(
                &prog,
                "main",
                SymbolicState::<WhileSymMemory>::new(solver.clone()),
                cfg,
            );
            assert!(!result.bounded(), "checkpoint workload must be exhaustive");
            paths += result.paths.len();
            cmds += result.total_cmds;
        }
        (paths, cmds, started.elapsed().as_secs_f64())
    };
    let armed =
        || Some(CheckpointConfig::at(&path).with_interval(std::time::Duration::from_millis(250)));
    // Warm-up leg (untimed): the first pass through the battery mints the
    // interner nodes and warms the allocator, which would otherwise be
    // billed entirely to whichever leg ran first.
    let (paths_off, cmds_off, _) = leg(None);
    // Interleaved best-of-3: noise only ever adds time, so the minimum of
    // alternating legs is the fairest off-vs-armed comparison.
    let writes_before = registry().counter(names::CHECKPOINT_WRITES).get();
    let (mut off_secs, mut on_secs) = (f64::INFINITY, f64::INFINITY);
    let (mut paths_on, mut cmds_on) = (0, 0);
    for _ in 0..3 {
        off_secs = off_secs.min(leg(None).2);
        let (p, c, secs) = leg(armed());
        (paths_on, cmds_on) = (p, c);
        on_secs = on_secs.min(secs);
    }
    let writes = registry().counter(names::CHECKPOINT_WRITES).get() - writes_before;
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        (paths_off, cmds_off),
        (paths_on, cmds_on),
        "checkpointing perturbed exploration results"
    );
    let w = Workload {
        name: "checkpoint_250ms",
        tests: PROGRAMS,
        gil_cmds: cmds_on,
        paths: paths_on,
        secs: on_secs,
        baseline_secs: None,
    };
    (
        w,
        CheckpointOverhead {
            off_secs,
            on_secs,
            writes,
        },
    )
}

/// The off-vs-armed legs of the profiler-overhead measurement.
struct ProfilerOverhead {
    off_secs: f64,
    on_secs: f64,
    /// Journal events merged across the armed leg (ProcTime, forks,
    /// finishes, sat queries — everything the profiler ingests).
    events: u64,
}

impl ProfilerOverhead {
    fn overhead_pct(&self) -> f64 {
        100.0 * (self.on_secs / self.off_secs.max(1e-9) - 1.0)
    }
}

/// The `profiler_journal` workload: a fixed-seed battery of generated
/// While programs explored twice in one process — journal disabled (the
/// sinks-off default every untraced run pays), then with the in-memory
/// event journal armed, which turns on path-context attribution, the
/// dispatcher's per-proc time segments, and the exploration-tree profile
/// built into the run's report — so the JSON records what arming the
/// profiler costs on this machine. Both legs must produce identical path
/// and command counts (profiling is observationally transparent); the
/// reported workload row is the armed leg.
fn run_profiler_overhead() -> (Workload, ProfilerOverhead) {
    use gillian_core::generate::{build_prog, gen_ops, MemDialect, Rng};
    use gillian_core::symbolic::SymbolicState;
    use gillian_while::WhileSymMemory;

    const SEED: u64 = 0xF01D_ED57;
    const PROGRAMS: usize = 40;
    let solver = std::sync::Arc::new(gillian_bench::solver_from_env());
    let leg = |armed: bool| -> (usize, u64, u64, f64) {
        let started = std::time::Instant::now();
        let (mut paths, mut cmds, mut events) = (0usize, 0u64, 0u64);
        for i in 0..PROGRAMS as u64 {
            let ops = gen_ops(&mut Rng::new(SEED + i), 14, MemDialect::While);
            let prog = build_prog(&ops, MemDialect::While);
            let journal = if armed {
                gillian_telemetry::Journal::enabled()
            } else {
                gillian_telemetry::Journal::disabled()
            };
            let cfg = gillian_core::ExploreConfig {
                journal: journal.clone(),
                checkpoint: gillian_bench::checkpoint_from_env(),
                ..gillian_bench::explore_config_from_env(Default::default())
            };
            let result = gillian_core::explore(
                &prog,
                "main",
                SymbolicState::<WhileSymMemory>::new(solver.clone()),
                cfg,
            );
            assert!(!result.bounded(), "profiler workload must be exhaustive");
            paths += result.paths.len();
            cmds += result.total_cmds;
            if armed {
                events += result.report.events;
                assert!(
                    result.report.profile.is_some(),
                    "armed leg must build the exploration-tree profile"
                );
            }
        }
        (paths, cmds, events, started.elapsed().as_secs_f64())
    };
    // Warm-up leg (untimed), then interleaved best-of-3 — same
    // methodology as the checkpoint overhead above.
    let (paths_off, cmds_off, _, _) = leg(false);
    let (mut off_secs, mut on_secs) = (f64::INFINITY, f64::INFINITY);
    let (mut paths_on, mut cmds_on, mut events) = (0, 0, 0);
    for _ in 0..3 {
        off_secs = off_secs.min(leg(false).3);
        let (p, c, e, secs) = leg(true);
        (paths_on, cmds_on, events) = (p, c, e);
        on_secs = on_secs.min(secs);
    }
    assert_eq!(
        (paths_off, cmds_off),
        (paths_on, cmds_on),
        "profiling perturbed exploration results"
    );
    let w = Workload {
        name: "profiler_journal",
        tests: PROGRAMS,
        gil_cmds: cmds_on,
        paths: paths_on,
        secs: on_secs,
        baseline_secs: None,
    };
    (
        w,
        ProfilerOverhead {
            off_secs,
            on_secs,
            events,
        },
    )
}

/// Peak resident set size in bytes, from `/proc/self/status` (`VmHWM`).
/// Returns 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

fn json_workload(out: &mut String, w: &Workload) {
    let baseline = match w.baseline_secs {
        Some(b) => format!("{b:.4}"),
        None => "null".to_string(),
    };
    let speedup = match w.speedup() {
        Some(s) => format!("{s:.2}"),
        None => "null".to_string(),
    };
    write!(
        out,
        concat!(
            "    {{\"name\": \"{}\", \"tests\": {}, \"gil_cmds\": {}, \"paths\": {}, ",
            "\"secs\": {:.4}, \"paths_per_sec\": {:.1}, ",
            "\"baseline_secs\": {}, \"speedup_vs_baseline\": {}}}"
        ),
        w.name,
        w.tests,
        w.gil_cmds,
        w.paths,
        w.secs,
        w.paths_per_sec(),
        baseline,
        speedup
    )
    .unwrap();
}

fn render_json(
    workloads: &[Workload],
    ckpt: &CheckpointOverhead,
    prof: &ProfilerOverhead,
    interner: &InternStats,
    rss: u64,
) -> String {
    let denom = (interner.mints + interner.hits).max(1);
    let hit_rate = interner.hits as f64 / denom as f64;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"gillian-bench-repr-smoke/4\",\n");
    writeln!(
        out,
        concat!(
            "  \"baseline\": {{\"commit\": \"{}\", \"methodology\": ",
            "\"internal suite totals at the pre-refactor commit, ",
            "averaged over 10 runs interleaved with the refactored ",
            "binaries on the same machine; measured-side numbers are ",
            "machine-relative and recommitted whenever workloads change, ",
            "from a contended-phase run (the telemetry gate treats them ",
            "as a floor), so absolute paths/sec is only comparable ",
            "within one committed file\"}},"
        ),
        BASELINE_COMMIT
    )
    .unwrap();
    out.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        json_workload(&mut out, w);
        out.push_str(if i + 1 < workloads.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    writeln!(
        out,
        concat!(
            "  \"checkpoint_overhead\": {{\"off_secs\": {:.4}, ",
            "\"on_secs\": {:.4}, \"every_ms\": 250, \"writes\": {}, ",
            "\"overhead_pct\": {:.2}, \"methodology\": ",
            "\"best-of-3 interleaved legs of the same fixed-seed While ",
            "battery after an untimed warm-up pass, checkpointing off vs ",
            "armed at a 250ms interval; each program finishes well inside ",
            "the interval, so the armed leg prices the per-step clock ",
            "checks (writes counts any interval writes that did fire), ",
            "and with no baseline_secs the workload row carries no ",
            "speedup ratio — overhead_pct is indicative, not a gate\"}},"
        ),
        ckpt.off_secs,
        ckpt.on_secs,
        ckpt.writes,
        ckpt.overhead_pct()
    )
    .unwrap();
    writeln!(
        out,
        concat!(
            "  \"profiler_overhead\": {{\"off_secs\": {:.4}, ",
            "\"on_secs\": {:.4}, \"events\": {}, ",
            "\"overhead_pct\": {:.2}, \"methodology\": ",
            "\"best-of-3 interleaved legs of the same fixed-seed While ",
            "battery after an untimed warm-up pass, journal disabled vs ",
            "armed in-memory; the armed leg pays path-context attribution, ",
            "per-proc dispatcher segments, and the exploration-tree ",
            "profile built into each run's report (events counts merged ",
            "journal records); file sinks and the live console are priced ",
            "separately by running the telemetry gate with GILLIAN_LIVE ",
            "set — overhead_pct is indicative, not a gate\"}},"
        ),
        prof.off_secs,
        prof.on_secs,
        prof.events,
        prof.overhead_pct()
    )
    .unwrap();
    writeln!(
        out,
        concat!(
            "  \"interner\": {{\"mints\": {}, \"hits\": {}, ",
            "\"hit_rate\": {:.4}, \"live\": {}}},"
        ),
        interner.mints, interner.hits, hit_rate, interner.live
    )
    .unwrap();
    writeln!(out, "  \"peak_rss_bytes\": {rss}").unwrap();
    out.push_str("}\n");
    out
}

/// The sinks-off overhead guard (`BENCH_TELEMETRY_GATE=1`): measured
/// paths/sec must stay within `tolerance` of the throughput recorded in
/// the committed baseline JSON. Running the gate with `GILLIAN_LIVE`
/// set additionally covers the live-mode sink: every explore in the
/// gated workloads then pays the live console's frame emission against
/// a looser 10% floor — the batteries here are sub-10ms micro-runs, so
/// the per-run sink open and first/final frames dominate in a way real
/// runs (one sink per run, frames per interval) never see. CI runs the
/// gate both ways. Reads the recorded `paths_per_sec` with
/// a tiny line scan — the file is machine-written by this bin, so the
/// fields are on one line per workload in a stable order.
///
/// Best-of-three: single runs of these sub-second suites swing several
/// percent with machine load, and noise only ever subtracts throughput,
/// so a failing attempt re-runs the workloads (up to twice) and gates
/// on the best measurement seen. The committed baseline is recorded
/// during a *contended* phase of the reference machine for the same
/// reason — the gate is a floor, not a race.
fn telemetry_gate(workloads: &[Workload], baseline: &str, baseline_path: &str, tolerance: f64) {
    let recorded_for = |name: &str| -> f64 {
        baseline
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .and_then(|l| l.split("\"paths_per_sec\": ").nth(1))
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|num| num.trim().parse::<f64>().ok())
            .unwrap_or_else(|| {
                panic!("BENCH_TELEMETRY_GATE: no paths_per_sec for {name} in {baseline_path}")
            })
    };
    let mut best: Vec<(&'static str, f64)> = workloads
        .iter()
        .map(|w| (w.name, w.paths_per_sec()))
        .collect();
    for attempt in 0..2 {
        let under = best
            .iter()
            .any(|&(name, pps)| pps / recorded_for(name).max(1e-9) < 1.0 - tolerance);
        if !under {
            break;
        }
        println!(
            "telemetry gate: attempt {} under budget, re-measuring",
            attempt + 1
        );
        for (w, slot) in [run_table1(), run_table2()].iter().zip(best.iter_mut()) {
            slot.1 = slot.1.max(w.paths_per_sec());
        }
    }
    for &(name, pps) in &best {
        let recorded = recorded_for(name);
        let ratio = pps / recorded.max(1e-9);
        println!(
            "telemetry gate: {name} {pps:.0} paths/sec vs recorded {recorded:.0} ({:+.1}%)",
            100.0 * (ratio - 1.0)
        );
        assert!(
            ratio >= 1.0 - tolerance,
            "{name}: {pps:.0} paths/sec regresses more than {:.0}% vs the {recorded:.0} recorded in {baseline_path}",
            100.0 * tolerance
        );
    }
}

fn main() {
    // The baseline is read up front: the default baseline path is the
    // file this run overwrites below.
    let gate = std::env::var("BENCH_TELEMETRY_GATE").as_deref() == Ok("1");
    let baseline_path =
        std::env::var("BENCH_REPR_BASELINE").unwrap_or_else(|_| "BENCH_repr.json".to_string());
    let baseline = gate.then(|| {
        std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("BENCH_TELEMETRY_GATE: read {baseline_path}: {e}"))
    });
    let before = InternStats::snapshot();
    let metrics_before = registry().snapshot();
    let run_started = std::time::Instant::now();
    let (ckpt_workload, ckpt) = run_checkpoint_overhead();
    let (prof_workload, prof) = run_profiler_overhead();
    let workloads = [
        run_table1(),
        run_table2(),
        run_difftest(),
        ckpt_workload,
        prof_workload,
        run_compile_cost(),
    ];
    let report = Report {
        wall_micros: run_started.elapsed().as_micros() as u64,
        metrics: registry().snapshot().since(&metrics_before),
        ..Default::default()
    };
    let interner = InternStats::snapshot().since(&before);
    let rss = peak_rss_bytes();

    let json = render_json(&workloads, &ckpt, &prof, &interner, rss);
    let out_path =
        std::env::var("BENCH_REPR_OUT").unwrap_or_else(|_| "BENCH_repr.json".to_string());
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));

    for w in &workloads {
        let vs = match w.speedup() {
            Some(s) => format!(" ({s:.2}x vs {BASELINE_COMMIT} baseline)"),
            None => String::new(),
        };
        println!(
            "{}: {} paths in {:.3}s = {:.0} paths/sec{vs}",
            w.name,
            w.paths,
            w.secs,
            w.paths_per_sec(),
        );
    }
    let denom = (interner.mints + interner.hits).max(1);
    println!(
        "interner: {} mints, {} hits ({:.1}% hit rate); peak RSS {:.1} MiB",
        interner.mints,
        interner.hits,
        100.0 * interner.hits as f64 / denom as f64,
        rss as f64 / (1024.0 * 1024.0)
    );
    println!(
        "checkpoint overhead: off {:.3}s vs 250ms-interval {:.3}s ({:+.1}%, {} writes)",
        ckpt.off_secs,
        ckpt.on_secs,
        ckpt.overhead_pct(),
        ckpt.writes
    );
    println!(
        "profiler overhead: off {:.3}s vs journal armed {:.3}s ({:+.1}%, {} events)",
        prof.off_secs,
        prof.on_secs,
        prof.overhead_pct(),
        prof.events
    );
    println!("wrote {out_path}");
    println!("\n{}", report.render());

    if let Some(baseline) = &baseline {
        // The gate covers the two baselined workloads only: its best-of-three
        // re-measure re-runs table1/table2 and zips by position. With the
        // live sink armed the floor loosens to 10% (see telemetry_gate).
        let tolerance = if std::env::var("GILLIAN_LIVE").is_ok() {
            0.10
        } else {
            0.03
        };
        telemetry_gate(&workloads[..2], baseline, &baseline_path, tolerance);
    }

    if std::env::var("BENCH_SMOKE_STRICT").as_deref() == Ok("1") {
        for w in &workloads {
            let Some(speedup) = w.speedup() else { continue };
            assert!(
                speedup >= 1.5,
                "{}: speedup {speedup:.2}x below the 1.5x gate",
                w.name,
            );
        }
    }
}
