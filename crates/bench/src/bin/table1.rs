//! Regenerates the paper's Table 1 (Buckets.js: per-structure test
//! counts, GIL command counts, and baseline-vs-optimized times).
//!
//! `BENCH_REPORT=1` appends the telemetry report for the run, scoped to
//! this table only (unlike `repr_smoke`, which aggregates workloads).

fn main() {
    let before = gillian_telemetry::registry().snapshot();
    let started = std::time::Instant::now();
    let rows = gillian_bench::table1_rows();
    print!("{}", gillian_bench::render_table1(&rows));
    if std::env::var("BENCH_REPORT").as_deref() == Ok("1") {
        let report = gillian_telemetry::Report {
            wall_micros: started.elapsed().as_micros() as u64,
            metrics: gillian_telemetry::registry().snapshot().since(&before),
            ..Default::default()
        };
        println!("\n{}", report.render());
    }
}
