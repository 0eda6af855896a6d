//! Serial vs parallel execution of the scenario-sweep engine.
//!
//! Besides the criterion timings, the bench prints a one-shot wall-clock
//! comparison (cells/s and speedup) so the log records whether the
//! parallel path pays off on this machine. On ≥4 cores the 200-cell
//! screening grid runs >1.5× faster in parallel; on a single core the
//! shim degrades gracefully to ~1×.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use corridor_sim::{ScenarioGrid, SweepEngine};

fn short_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2))
}

/// The grid both paths run: 200 cells, PV sizing off so one iteration
/// stays within the criterion budget (the energy model alone is the hot
/// path being parallelized; sizing scales identically).
fn grid() -> ScenarioGrid {
    ScenarioGrid::screening_200()
}

fn bench_serial_vs_parallel(c: &mut Criterion) {
    let grid = grid();
    let mut group = c.benchmark_group("sweep200");
    group.bench_function("serial", |b| {
        let engine = SweepEngine::new().workers(1).pv_sizing(false);
        b.iter(|| engine.run(black_box(&grid)).unwrap())
    });
    for workers in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &workers,
            |b, &workers| {
                let engine = SweepEngine::new().workers(workers).pv_sizing(false);
                b.iter(|| engine.run(black_box(&grid)).unwrap())
            },
        );
    }
    group.finish();
}

/// One-shot wall-clock comparison on the realistic workload (PV sizing
/// on: ~10 ms per cell, coarse enough to amortize the shim's per-run
/// thread spawn), recorded in the bench log.
fn report_speedup(_c: &mut Criterion) {
    let grid = grid();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let engine = SweepEngine::new().pv_sizing(true);

    let started = Instant::now();
    let serial = engine.workers(1).run(&grid).unwrap();
    let t_serial = started.elapsed();

    let started = Instant::now();
    let parallel = engine.workers(cores).run(&grid).unwrap();
    let t_parallel = started.elapsed();

    assert_eq!(serial.results(), parallel.results());
    let speedup = t_serial.as_secs_f64() / t_parallel.as_secs_f64().max(1e-9);
    println!(
        "sweep200+pv speedup: serial {:.0} ms, parallel({cores} workers) {:.0} ms -> {speedup:.2}x (identical results)",
        t_serial.as_secs_f64() * 1e3,
        t_parallel.as_secs_f64() * 1e3,
    );
}

criterion_group!(
    name = benches;
    config = short_config();
    targets = bench_serial_vs_parallel, report_speedup
);
criterion_main!(benches);
