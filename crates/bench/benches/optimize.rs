//! Deployment-optimizer throughput: candidate configurations per
//! second, serial vs parallel, plus the coverage cache's measured
//! saving over the naive per-step sweep.
//!
//! Besides the criterion timings, the bench prints a one-shot
//! wall-clock comparison recording configs/s and the cache hit rate,
//! and asserts the acceptance property directly: the shared cache
//! samples at least 2x fewer SNR profiles than the naive per-step
//! search (which pays one profile per coverage lookup) would.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use corridor_core::units::Meters;
use corridor_sim::{DeploymentOptimizer, IsdSearch, ScenarioGrid, SearchSpace};

fn short_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2))
}

/// The criterion workload: 4 cells x 11 counts through the cached
/// model-grid search, small enough for the criterion budget.
fn bench_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0])
        .train_speeds_kmh(vec![160.0, 200.0])
}

fn bench_space() -> SearchSpace {
    SearchSpace::new()
        .sample_step(Meters::new(10.0))
        .isd_search(IsdSearch::model_paper_grid())
}

fn bench_serial_vs_parallel(c: &mut Criterion) {
    let grid = bench_grid();
    let space = bench_space();
    let mut group = c.benchmark_group("optimize4");
    group.bench_function("serial", |b| {
        let optimizer = DeploymentOptimizer::new().workers(1);
        b.iter(|| optimizer.run(black_box(&grid), black_box(&space)).unwrap())
    });
    for workers in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &workers,
            |b, &workers| {
                let optimizer = DeploymentOptimizer::new().workers(workers);
                b.iter(|| optimizer.run(black_box(&grid), black_box(&space)).unwrap())
            },
        );
    }
    group.finish();
}

/// One-shot wall-clock measurement on the screening-scale workload:
/// the 200-cell grid through the cached model-grid search, serial then
/// with all cores, recorded as configs/s plus the cache counters.
fn report_configs_per_second(_c: &mut Criterion) {
    let grid = ScenarioGrid::screening_200();
    let space = bench_space();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let started = Instant::now();
    let serial = DeploymentOptimizer::new()
        .workers(1)
        .run(&grid, &space)
        .unwrap();
    let t_serial = started.elapsed();

    let started = Instant::now();
    let parallel = DeploymentOptimizer::new()
        .workers(cores)
        .run(&grid, &space)
        .unwrap();
    let t_parallel = started.elapsed();

    assert_eq!(serial, parallel, "parallel run must reproduce serial");
    let configs = serial.candidates_evaluated() as f64;
    let serial_rate = configs / t_serial.as_secs_f64().max(1e-9);
    let parallel_rate = configs / t_parallel.as_secs_f64().max(1e-9);
    let speedup = t_serial.as_secs_f64() / t_parallel.as_secs_f64().max(1e-9);
    println!(
        "optimize200 throughput: serial {serial_rate:.0} configs/s, \
         parallel({cores} workers) {parallel_rate:.0} configs/s -> {speedup:.2}x (identical reports)"
    );
    println!(
        "coverage cache: {} lookups, {} profiles sampled ({:.1} % hit rate)",
        serial.coverage_lookups(),
        serial.profile_evaluations(),
        serial.cache_hit_rate() * 100.0
    );
    // the acceptance property: the memoized cache does at least 2x
    // better than the naive per-step sweep (one profile per lookup)
    assert!(
        serial.coverage_lookups() >= 2 * serial.profile_evaluations(),
        "cache saved less than 2x: {} lookups, {} profiles",
        serial.coverage_lookups(),
        serial.profile_evaluations()
    );
}

criterion_group!(
    name = benches;
    config = short_config();
    targets = bench_serial_vs_parallel, report_configs_per_second
);
criterion_main!(benches);
