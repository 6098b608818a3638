//! `gbench`: the engine's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/gbench/Cargo.toml -- \
//!     [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With one `--workload`, the workload runs in this process: it is built
//! in bursts spread over the run (the fastest build is `setup_s`), warmed
//! up for one untimed round, and then timed over a fixed number of
//! rounds, which `--seconds` sets in proportion to a count calibrated
//! for about 10 s. The
//! last line of standard output is one JSON object with the verdict
//! counts and the metrics: the end-to-end metrics untraced, the
//! per-layer metrics with `--trace 1`, which also writes the span trees
//! to `target/gbench/trace-<workload>-<seed>.jsonl`. With several
//! workloads, or none (meaning all five), each runs in a child process
//! of its own, so peak heap and interner state stay per workload, and a
//! table of every metric follows.
//!
//! See `README.md` beside this file for the workloads and metrics.

mod heap;
mod runner;
mod stats;
mod trace;
mod workloads;

use gillian_gil::{InternStats, Prog};
use gillian_telemetry::json::{self, ObjWriter};
use runner::Phase;
use stats::ratio;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Built, Size, Workload, WORKLOADS};

const USAGE: &str = "usage: gbench [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]";

/// Builds per set-up burst. A run times five bursts, one before the
/// warm-up and one after each quarter of the timed rounds, and
/// `setup_s` is the fastest of their builds. On a shared host contention
/// slows every build it overlaps, by up to 70% and for a second or for
/// minutes; spread over the run, the builds meet its quietest moments.
const SETUP_BUILDS: usize = 10;

/// End-to-end metrics (printed untraced), with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("tests_per_s", "1/s"),
    ("test_p50_ms", "ms"),
    ("test_p90_ms", "ms"),
    ("paths_per_s", "1/s"),
    ("cmds_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (printed traced), with units. Counts and times are
/// per round, that is per pass over the workload's tests.
const PER_LAYER: [(&str, &str); 32] = [
    ("frontend.parse_s", "s"),
    ("frontend.compile_s", "s"),
    ("frontend.gil_cmds", "count"),
    ("gil.bytecode_compile_s", "s"),
    ("gil.intern_mints", "count"),
    ("gil.intern_hit_ratio", "ratio"),
    ("gil.intern_live", "count"),
    ("exec.cmds", "count"),
    ("exec.cmds_per_block", "ratio"),
    ("exec.ic_hit_ratio", "ratio"),
    ("exec.dispatch_self_s", "s"),
    ("explore.s", "s"),
    ("explore.paths", "count"),
    ("explore.error_paths", "count"),
    ("explore.engine_self_s", "s"),
    ("memory.actions", "count"),
    ("memory.action_self_s", "s"),
    ("memory.action_mean_us", "us"),
    ("solver.sat_queries", "count"),
    ("solver.sat_cache_hit_ratio", "ratio"),
    ("solver.sat_incremental_hits", "count"),
    ("solver.sat_implication_hits", "count"),
    ("solver.sat_solves", "count"),
    ("solver.sat_solve_s", "s"),
    ("solver.sat_unknowns", "count"),
    ("solver.simplify_memo_hit_ratio", "ratio"),
    ("solver.model_calls", "count"),
    ("solver.model_failures", "count"),
    ("verdict.s", "s"),
    ("difftest.replays", "count"),
    ("difftest.skipped", "count"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut pending = args.next();
    while let Some(flag) = pending.take() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if workloads::find(&name).is_none() {
                    return Err(format!("unknown workload {name}"));
                }
                out.workloads.push(name);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                let next = args.next();
                out.trace = match next.as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        pending = next;
                        true
                    }
                };
            }
            other => return Err(format!("unexpected argument {other}")),
        }
        if pending.is_none() {
            pending = args.next();
        }
    }
    Ok(out)
}

/// One metric as printed.
#[derive(Clone, Debug, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metrics<const N: usize>(spec: &[(&str, &str); N], values: [f64; N]) -> Vec<Metric> {
    spec.iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        })
        .collect()
}

/// A run's result: the last line of standard output.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut m = ObjWriter::new();
        for metric in &self.metrics {
            let v = ObjWriter::new()
                .f64("value", metric.value)
                .str("unit", &metric.unit)
                .finish();
            m.raw(&metric.name, &v);
        }
        ObjWriter::new()
            .bool("correct", self.correct)
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &m.finish())
            .finish()
    }

    fn from_json(line: &str) -> Result<Outcome, String> {
        let v = json::parse(line)?;
        let field = |k: &str| v.get(k).ok_or(format!("result has no {k}"));
        let count = |k: &str| field(k)?.as_u64().ok_or(format!("{k} is not a count"));
        let json::Value::Obj(map) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let metrics = map
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(json::Value::as_f64)
                        .ok_or("no value")?,
                    unit: m
                        .get("unit")
                        .and_then(json::Value::as_str)
                        .ok_or("no unit")?
                        .into(),
                })
            })
            .collect::<Result<_, &str>>()?;
        Ok(Outcome {
            correct: matches!(field("correct")?, json::Value::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// What building the workload cost: each build's time and its parse and
/// compile parts.
#[derive(Default)]
struct Setup {
    secs: Vec<f64>,
    parse_s: Vec<f64>,
    compile_s: Vec<f64>,
}

impl Setup {
    /// Builds the workload [`SETUP_BUILDS`] times and returns the last
    /// build. Each build starts after the previous one is freed, so every
    /// build meets the same heap.
    fn burst(&mut self, w: &Workload, seed: u64) -> Built {
        let mut last = None;
        for _ in 0..SETUP_BUILDS {
            drop(last.take());
            let start = Instant::now();
            let built = w.build(seed, Size::Full);
            self.secs.push(start.elapsed().as_secs_f64());
            self.parse_s.push(built.parse_s);
            self.compile_s.push(built.compile_s);
            last = Some(built);
        }
        last.expect("SETUP_BUILDS is positive")
    }
}

/// Seconds to compile every procedure of cold copies of the programs to
/// bytecode, eagerly (runs compile lazily, per procedure reached).
fn bytecode_cost(progs: &[Arc<Prog>]) -> f64 {
    let mut secs = 0.0;
    for prog in progs {
        let cold = Prog::clone(prog);
        let start = Instant::now();
        let compiled = cold.bytecode();
        for proc in cold.iter() {
            let pid = compiled.pid(&proc.name).expect("every procedure has a pid");
            std::hint::black_box(compiled.by_pid(pid));
        }
        secs += start.elapsed().as_secs_f64();
    }
    secs
}

/// Each test's latency: the fastest of its timed executions, the one
/// contention on the host slowed least. See README, "How a run measures".
fn latencies(p: &Phase) -> Vec<f64> {
    p.exec_s.iter().map(|e| stats::fastest(e)).collect()
}

/// The end-to-end metrics.
fn end_to_end(setup: &Setup, p: &Phase) -> Vec<Metric> {
    let latency = stats::sorted(&latencies(p));
    // One round at the tests' latencies.
    let round_s: f64 = latency.iter().sum();
    let per_round = |n: u64| n as f64 / p.rounds as f64;
    metrics(
        &END_TO_END,
        [
            stats::fastest(&setup.secs),
            latency.len() as f64 / round_s,
            stats::harrell_davis(&latency, 50.0) * 1e3,
            stats::harrell_davis(&latency, 90.0) * 1e3,
            per_round(p.paths) / round_s,
            per_round(p.cmds) / round_s,
            heap::peak_bytes() as f64 / 1e6,
        ],
    )
}

/// The per-layer metrics.
fn per_layer(built: &Built, setup: &Setup, p: &Phase) -> Vec<Metric> {
    let layers = trace::layer_totals(&p.spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let rounds = p.rounds as f64;
    let per_round = |n: u64| n as f64 / rounds;
    let secs_per_round = |us: u64| us as f64 / 1e6 / rounds;
    let c = &p.counters;
    let actions = layer("memory.action");
    metrics(
        &PER_LAYER,
        [
            stats::fastest(&setup.parse_s),
            stats::fastest(&setup.compile_s),
            built.progs.iter().map(|p| p.cmd_count() as f64).sum(),
            bytecode_cost(&built.progs),
            per_round(c.intern_mints),
            ratio(
                c.intern_hits as f64,
                (c.intern_mints + c.intern_hits) as f64,
            ),
            InternStats::snapshot().live as f64,
            per_round(c.exec_cmds),
            ratio(c.exec_cmds as f64, c.exec_blocks as f64),
            ratio(c.ic_hits as f64, (c.ic_hits + c.ic_misses) as f64),
            secs_per_round(layer("exec.dispatch").self_us),
            secs_per_round(layer("explore").dur_us),
            per_round(p.paths),
            per_round(p.error_paths),
            secs_per_round(layer("explore").self_us),
            per_round(actions.count),
            secs_per_round(actions.self_us),
            ratio(actions.self_us as f64, actions.count as f64),
            per_round(c.sat_queries),
            ratio(c.sat_cache_hits as f64, c.sat_queries as f64),
            per_round(c.sat_incremental_hits),
            per_round(c.sat_implication_hits),
            per_round(c.sat_solves),
            secs_per_round(c.sat_solve_us),
            per_round(c.sat_unknowns),
            ratio(p.simplify_hits as f64, p.simplifications as f64),
            per_round(p.model_searches),
            per_round(p.model_failures),
            secs_per_round(layer("verdict").dur_us),
            per_round(c.difftest_replays),
            per_round(p.skipped),
            100.0 * (ratio(p.traced_s, p.untraced_s) - 1.0),
        ],
    )
}

/// Prints each traced layer's self time per test and as a share of the
/// test spans, and writes the spans as JSONL.
fn report_trace(w: &Workload, seed: u64, p: &Phase) {
    let layers = trace::layer_totals(&p.spans);
    let tests = p.attempted.max(1) as f64;
    let total_us = layers.get("test").map_or(0, |t| t.dur_us).max(1) as f64;
    eprintln!(
        "{:<16} {:>14} {:>10} {:>12}",
        "layer", "self ms/test", "share", "ops/test"
    );
    let mut rows: Vec<_> = layers.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_us));
    for (name, t) in rows {
        eprintln!(
            "{name:<16} {:>14.4} {:>9.1}% {:>12.1}",
            t.self_us as f64 / 1e3 / tests,
            100.0 * t.self_us as f64 / total_us,
            t.count as f64 / tests
        );
    }
    let explore = layers.get("explore").copied().unwrap_or_default();
    let children: u64 = ["exec.dispatch", "solver.sat", "memory.action"]
        .iter()
        .filter_map(|n| layers.get(*n))
        .map(|t| t.dur_us)
        .sum();
    eprintln!(
        "explore: layer children cover {:.1}% of its span, engine self time {:.1}%",
        100.0 * ratio(children as f64, explore.dur_us as f64),
        100.0 * ratio(explore.self_us as f64, explore.dur_us as f64)
    );
    if p.journal_dropped > 0 {
        eprintln!(
            "warning: the journal dropped {} events; layer shares are partial",
            p.journal_dropped
        );
    }
    let path = std::path::PathBuf::from(format!("target/gbench/trace-{}-{seed}.jsonl", w.name));
    match trace::write_jsonl(&path, &p.spans) {
        Ok(()) => eprintln!("wrote {} spans to {}", p.spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Runs one workload in this process. A traced run times a quarter of
/// the rounds, since each of its tests runs twice and the traced
/// execution is slower.
fn run(w: &Workload, args: &Args) -> Outcome {
    let mut setup = Setup::default();
    let built = setup.burst(w, args.seed);
    let rounds = w.rounds(args.seconds);
    let rounds = if args.trace {
        rounds.div_ceil(4)
    } else {
        rounds
    };
    // The later set-up bursts, after each quarter of the rounds; the
    // builds they make and free are not the tests' heap.
    let quarters: Vec<u64> = (1..=4).map(|k| (k * rounds).div_ceil(4)).collect();
    let phase = runner::measure(&built, rounds, args.trace, |done| {
        for _ in quarters.iter().filter(|&&q| q == done) {
            heap::untracked(|| drop(setup.burst(w, args.seed)));
        }
    });
    let builds = stats::sorted(&setup.secs);
    eprintln!(
        "set-up: {} builds, fastest {:.4} s, median {:.4} s, slowest {:.4} s",
        builds.len(),
        builds[0],
        stats::median(&builds),
        builds[builds.len() - 1]
    );
    // The differential battery's bound on paths the oracle cannot check.
    let skips_ok = phase.skipped * 3 <= phase.paths;
    if !skips_ok {
        eprintln!(
            "FAIL {}: the oracle skipped {} of {} paths",
            w.name, phase.skipped, phase.paths
        );
    }
    eprintln!(
        "{}: {} tests in {} rounds over {:.2}s, {} failed",
        w.name,
        phase.attempted,
        phase.rounds,
        phase.round_s.iter().sum::<f64>(),
        phase.failed
    );
    let round_s = stats::sorted(&phase.round_s);
    eprintln!(
        "rounds: fastest {:.4} s, median {:.4} s, slowest {:.4} s; test latencies sum to {:.4} s",
        round_s[0],
        stats::median(&round_s),
        round_s[round_s.len() - 1],
        latencies(&phase).iter().sum::<f64>()
    );
    let metrics = if args.trace {
        report_trace(w, args.seed, &phase);
        per_layer(&built, &setup, &phase)
    } else {
        end_to_end(&setup, &phase)
    };
    Outcome {
        correct: phase.failed == 0 && skips_ok,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
    }
}

/// Runs each workload in a child process and prints every metric.
fn run_all(names: &[String], args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate gbench: {e}"))?;
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for name in names {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let outcome = match Outcome::from_json(last) {
            Ok(o) if out.status.success() => o,
            _ => return Err(format!("{name} failed ({})", out.status)),
        };
        println!("{name}:");
        for m in &outcome.metrics {
            println!("  {:<32} {:>18.6} {}", m.name, m.value, m.unit);
        }
        all.correct &= outcome.correct;
        all.attempted += outcome.attempted;
        all.failed += outcome.failed;
        all.metrics
            .extend(outcome.metrics.into_iter().map(|m| Metric {
                name: format!("{name}.{}", m.name),
                ..m
            }));
    }
    Ok(all)
}

fn main() -> ExitCode {
    // The engine crates read GILLIAN_* variables (bytecode backend,
    // summaries, tracing, ...); any of them would silently change what
    // is measured.
    if let Some(var) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("GILLIAN_"))
    {
        eprintln!("gbench: refusing to run with {var} set: it changes the measured engine");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workloads.as_slice() {
        [one] => run(workloads::find(one).expect("checked when parsed"), &args),
        names => {
            let all: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
            let names = if names.is_empty() { &all[..] } else { names };
            match run_all(names, &args) {
                Ok(outcome) => outcome,
                Err(e) => {
                    eprintln!("gbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_with_and_without_a_trace_value() {
        let a = args(&["--workload", "buckets_js", "--seed", "7", "--trace", "0"]).unwrap();
        assert_eq!((a.workloads.len(), a.seed, a.trace), (1, 7, false));
        let a = args(&["--trace", "--seconds", "2.5"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.seconds, 2.5);
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn results_round_trip_through_their_json_line() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: metrics(&[("a_s", "s"), ("b", "1/s")], [0.125, 3.0e-7]),
        };
        let back = Outcome::from_json(&o.to_json()).unwrap();
        assert!(back.correct);
        assert_eq!(back.attempted, 3);
        assert_eq!(back.metrics, o.metrics);
    }

    #[test]
    fn benchmark_json_names_every_printed_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(json::Value::Arr(items)) = spec.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |spec: &[(&str, &str)]| -> Vec<(String, String)> {
            spec.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let Some(json::Value::Arr(ws)) = spec.get("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<&str> = ws.iter().filter_map(|w| w.get("name")?.as_str()).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    /// Every workload at smoke size: warm-up plus one round, twice. The
    /// engine's counts must repeat exactly and every verdict must match
    /// its known answer; a second seed must draw different inputs with
    /// the same number of tests. Then one traced round, whose layer
    /// spans must account for the exploration. One test, because the
    /// registry counters are process-wide.
    #[test]
    fn smoke_runs_repeat_their_counts_and_verify() {
        for w in &WORKLOADS {
            let built = w.build(1, Size::Smoke);
            assert!(!built.tests.is_empty(), "{}", w.name);
            let a = runner::measure(&built, 1, false, |_| {});
            let b = runner::measure(&built, 1, false, |_| {});
            for p in [&a, &b] {
                assert_eq!((p.rounds, p.failed), (1, 0), "{}", w.name);
                assert_eq!(p.attempted as usize, built.tests.len(), "{}", w.name);
            }
            assert_eq!((a.paths, a.cmds), (b.paths, b.cmds), "{}", w.name);
            let counts =
                |c: &stats::Counters| (c.sat_queries, c.sat_solves, c.exec_cmds, c.intern_mints);
            assert_eq!(counts(&a.counters), counts(&b.counters), "{}", w.name);
            assert!(
                a.counters.sat_queries > 0 && a.counters.exec_cmds > 0,
                "{}",
                w.name
            );

            let again = w.build(1, Size::Smoke);
            let other = w.build(2, Size::Smoke);
            assert_eq!(
                again.inputs, built.inputs,
                "{}: same seed, same inputs",
                w.name
            );
            assert_ne!(
                other.inputs, built.inputs,
                "{}: seeds 1 and 2 draw alike",
                w.name
            );
            assert_eq!(other.tests.len(), built.tests.len(), "{}", w.name);
        }

        let built = workloads::find("deep_sequences")
            .unwrap()
            .build(3, Size::Smoke);
        let p = runner::measure(&built, 1, true, |_| {});
        assert_eq!(p.failed, 0);
        let layers = trace::layer_totals(&p.spans);
        let explore = layers["explore"];
        let covered: u64 = ["exec.dispatch", "solver.sat", "memory.action"]
            .iter()
            .map(|n| layers[*n].dur_us)
            .sum::<u64>()
            + explore.self_us;
        assert!(explore.dur_us > 0);
        assert!(10 * covered >= 9 * explore.dur_us, "{layers:?}");
        assert_eq!(layers["test"].count, p.attempted);
    }
}
