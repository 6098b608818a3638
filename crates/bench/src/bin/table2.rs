//! Regenerates the paper's Table 2 (Collections-C: per-structure test
//! counts, GIL command counts, and times).
//!
//! `BENCH_REPORT=1` appends the telemetry report for the run, scoped to
//! this table only (unlike `repr_smoke`, which aggregates workloads).

fn main() {
    let before = gillian_telemetry::registry().snapshot();
    let started = std::time::Instant::now();
    // `BENCH_REPEAT=N` re-runs the table N times (sampling profilers need
    // more than one ~70ms pass to resolve anything).
    let repeat: usize = std::env::var("BENCH_REPEAT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mut rows = gillian_bench::table2_rows();
    for _ in 1..repeat {
        rows = gillian_bench::table2_rows();
    }
    print!("{}", gillian_bench::render_table2(&rows));
    if std::env::var("BENCH_REPORT").as_deref() == Ok("1") {
        let report = gillian_telemetry::Report {
            wall_micros: started.elapsed().as_micros() as u64,
            metrics: gillian_telemetry::registry().snapshot().since(&before),
            ..Default::default()
        };
        println!("\n{}", report.render());
    }
}
