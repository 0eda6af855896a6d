//! The three batch workloads — `sweep-pv`, `mc-days`, `network-day` —
//! as seeded inputs, one timed engine pass, and one traced pass
//! that replays the engine's order of layer calls from the benchmark's
//! own code and checks it reproduces the engine's results exactly.

use std::collections::BTreeSet;
use std::time::Instant;

use corridor_core::energy::{self, SegmentEnergy};
use corridor_core::sink::{DigestSink, RowFormat, RowSink};
use corridor_core::stats::{SummaryStats, Welford};
use corridor_core::{AnalyticEvaluator, EnergyStrategy, SegmentEvaluator};
use corridor_events::{EventDrivenEvaluator, NodeKind, WakePolicy};
use corridor_sim::{
    CorridorEdge, CorridorNetwork, IsdSearch, McEngine, McMetric, NetworkDayEngine,
    NetworkOptimizer, PowerProfile, PvOutcome, ReplicationPlan, ScenarioCell, ScenarioGrid,
    SearchSpace, SweepEngine, TrafficSpec,
};
use corridor_solar::sizing::{self, SizingOptions};
use corridor_solar::{climate, DailyLoadProfile, Location};
use corridor_traffic::TrackSection;
use corridor_units::{Meters, Watts};
use rand::SeedableRng;

use crate::gen::Rng;
use crate::measure::ClockSink;
use crate::trace::Trace;

/// Replications per cell on `mc-days`: the `mc` binary's default.
const MC_REPS: usize = 25;
/// Replications per edge on `network-day`.
const NETWORK_REPS: usize = 250;
/// The margin-trading floor of the `network-day` optimizer, dB.
const MARGIN_FLOOR_DB: f64 = -3.0;
/// Hours of weather per candidate and seed year in PV sizing.
const HOURS_PER_YEAR: u64 = 8760;

/// Which batch workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    SweepPv,
    McDays,
    NetworkDay,
}

/// A batch workload's generated inputs, built and validated.
// one value per process: the variants' size difference costs nothing
#[allow(clippy::large_enum_variant)]
pub enum Batch {
    Sweep(ScenarioGrid),
    Mc(ScenarioGrid, ReplicationPlan),
    Network(CorridorNetwork, SearchSpace, u64),
}

/// What one untraced engine pass produced.
pub struct Pass {
    pub items: u64,
    pub rows: u64,
    pub bytes: u64,
    pub sha256: String,
    pub elapsed_s: f64,
    /// Seconds from the engine call to each timed row.
    pub row_s: Vec<f64>,
}

/// What the traced pass produced besides its per-layer numbers.
pub struct Traced {
    /// Wall time of the traced layer calls plus rendering.
    pub wall_s: f64,
    /// Digest of the rendered rows of the engine's in-memory report —
    /// must equal the streamed digest of the untraced passes.
    pub render_sha256: String,
}

impl Batch {
    /// Seed → generated inputs → grid or topology built and validated:
    /// the work `setup_s` measures.
    pub fn generate(kind: Kind, seed: u64) -> Result<Batch, String> {
        let batch = match kind {
            Kind::SweepPv => Batch::Sweep(sweep_grid(seed)),
            Kind::McDays => Batch::Mc(
                mc_grid(seed),
                ReplicationPlan::new(MC_REPS)
                    .master_seed(seed)
                    .traffic(TrafficSpec::Poisson),
            ),
            Kind::NetworkDay => Batch::Network(network(seed)?, network_space(), seed),
        };
        match &batch {
            Batch::Sweep(grid) | Batch::Mc(grid, _) => {
                grid.expand().map_err(|e| format!("grid: {e}"))?;
            }
            Batch::Network(net, _, _) => {
                net.validate().map_err(|e| format!("network: {e}"))?;
                for e in 0..net.edge_count() {
                    net.edge_cell(e).map_err(|err| format!("edge {e}: {err}"))?;
                }
            }
        }
        Ok(batch)
    }

    /// Work items one pass completes: cells, cell-days or edge-days.
    pub fn items(&self) -> u64 {
        match self {
            Batch::Sweep(grid) => grid.len() as u64,
            Batch::Mc(grid, plan) => (grid.len() * plan.replications()) as u64,
            Batch::Network(net, _, _) => (net.edge_count() * NETWORK_REPS) as u64,
        }
    }

    /// One engine pass at `workers`, streamed as CSV into a hashing,
    /// row-stamping sink.
    pub fn pass(&self, workers: usize) -> Result<Pass, String> {
        let started = Instant::now();
        let mut sink = ClockSink::new(started);
        match self {
            Batch::Sweep(grid) => {
                SweepEngine::new()
                    .workers(workers)
                    .pv_sizing(true)
                    .stream(grid, RowFormat::Csv, &mut sink)
                    .map_err(|e| format!("sweep: {e}"))?;
            }
            Batch::Mc(grid, plan) => {
                McEngine::new()
                    .workers(workers)
                    .stream(grid, plan, RowFormat::Csv, &mut sink)
                    .map_err(|e| format!("mc: {e}"))?;
            }
            Batch::Network(net, space, seed) => {
                // the optimizer's frontier and sleep schedule arrive in
                // one piece after the search; only the day rows stream
                sink.stamping = false;
                let report = optimizer(workers)
                    .run(net, space)
                    .map_err(|e| format!("optimizer: {e}"))?;
                report
                    .stream_frontier_into(RowFormat::Csv, &mut sink)
                    .map_err(|e| format!("frontier: {e}"))?;
                sink.write(&report.schedule_csv())
                    .map_err(|e| format!("schedule: {e}"))?;
                sink.stamping = true;
                day_engine(workers, *seed)
                    .stream(net, space, RowFormat::Csv, &mut sink)
                    .map_err(|e| format!("network day: {e}"))?;
            }
        }
        let elapsed_s = started.elapsed().as_secs_f64();
        let bytes = sink.bytes();
        let (sha256, row_s) = sink.finish_hex();
        Ok(Pass {
            items: self.items(),
            rows: row_s.len() as u64,
            bytes,
            sha256,
            elapsed_s,
            row_s,
        })
    }

    /// The traced pass: the engine's layer calls in the engine's order
    /// on one thread, each timed and counted, then checked bit for bit
    /// against the engine itself at `reference_workers`.
    pub fn traced(&self, trace: &mut Trace, reference_workers: usize) -> Result<Traced, String> {
        match self {
            Batch::Sweep(grid) => traced_sweep(grid, trace, reference_workers),
            Batch::Mc(grid, plan) => traced_mc(grid, plan, trace, reference_workers),
            Batch::Network(net, space, seed) => {
                traced_network(net, space, *seed, trace, reference_workers)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// `sweep-pv`: 6 timetable densities × 4 speeds × 2 train lengths × 2
/// LP spacings × 2 conventional ISDs × 2 equipment profiles × 6
/// climates (the paper's four plus two seeded blends) = 2304 cells.
fn sweep_grid(seed: u64) -> ScenarioGrid {
    let mut rng = Rng::new(seed, 1);
    let mut locations = climate::paper_regions().to_vec();
    locations.push(blend(
        "synth-south",
        &climate::madrid(),
        &climate::lyon(),
        rng.range(0.4, 0.6),
    ));
    locations.push(blend(
        "synth-north",
        &climate::vienna(),
        &climate::berlin(),
        rng.range(0.4, 0.6),
    ));
    ScenarioGrid::new()
        .trains_per_hour(rng.strata(6, 2.0, 14.0, 0.1))
        .train_speeds_kmh(rng.strata(4, 120.0, 300.0, 1.0))
        .train_lengths_m(rng.strata(2, 200.0, 420.0, 1.0))
        .lp_spacings_m(rng.strata(2, 150.0, 300.0, 1.0))
        .conventional_isds_m(rng.strata(2, 400.0, 650.0, 1.0))
        .power_profiles(vec![PowerProfile::paper(), PowerProfile::earth_fit()])
        .locations(locations)
}

/// A synthetic climate between two of the paper's: every normal is the
/// `w`-weighted mix of `a` and `b`.
fn blend(name: &'static str, a: &Location, b: &Location, w: f64) -> Location {
    let mix = |x: f64, y: f64| w * x + (1.0 - w) * y;
    let mut ghi = [0.0; 12];
    let mut temp = [0.0; 12];
    for m in 0..12 {
        ghi[m] = mix(a.monthly_ghi_kwh_m2_day()[m], b.monthly_ghi_kwh_m2_day()[m]);
        temp[m] = mix(a.monthly_temp_c()[m], b.monthly_temp_c()[m]);
    }
    Location::new(name, mix(a.latitude_deg(), b.latitude_deg()), ghi, temp)
        .with_overcast_persistence(mix(a.overcast_persistence(), b.overcast_persistence()))
}

/// `mc-days`: 7 × 2 × 2 × 2 × 2 = 112 cells under the Berlin default.
/// The middle timetable density, whose stratum offset is fixed, leads
/// the axis, so the first streamed row costs the same for every seed.
fn mc_grid(seed: u64) -> ScenarioGrid {
    let mut rng = Rng::new(seed, 2);
    let mut tph = rng.strata(7, 3.0, 14.0, 0.1);
    tph.rotate_left(3);
    ScenarioGrid::new()
        .trains_per_hour(tph)
        .train_speeds_kmh(rng.strata(2, 140.0, 260.0, 1.0))
        .train_lengths_m(rng.strata(2, 200.0, 420.0, 1.0))
        .lp_spacings_m(rng.strata(2, 150.0, 300.0, 1.0))
        .conventional_isds_m(rng.strata(2, 400.0, 600.0, 1.0))
}

/// `network-day`: ten edges of mixed shape — a hub with four spokes, a
/// two-edge line off the first spoke and a four-edge ring through the
/// second — with uneven demands and three double-track edges. The seed
/// draws every edge's demand, speed, train length and corridor length
/// inside a fixed stratum, so the shape and the work stay put.
fn network(seed: u64) -> Result<CorridorNetwork, String> {
    /// Which stratum (0 = lowest) of each drawn axis every edge takes.
    const DEMAND_RANK: [usize; 10] = [6, 1, 9, 3, 7, 0, 4, 8, 2, 5];
    const SPEED_RANK: [usize; 10] = [2, 7, 4, 9, 0, 5, 8, 1, 6, 3];
    const LENGTH_RANK: [usize; 10] = [5, 0, 8, 3, 6, 9, 1, 4, 7, 2];
    const DOUBLE_TRACK: [usize; 3] = [2, 5, 8];
    let mut rng = Rng::new(seed, 3);
    let demands = rng.strata(10, 2.0, 12.0, 0.5);
    let speeds = rng.strata(10, 120.0, 250.0, 1.0);
    let trains_m = rng.strata(10, 200.0, 400.0, 1.0);
    let lengths_km = rng.strata(10, 5.0, 20.0, 1.0);

    let mut net = CorridorNetwork::new();
    let hub = net.add_station("hub");
    let s: Vec<usize> = (0..4).map(|i| net.add_station(&format!("s{i}"))).collect();
    let t: Vec<usize> = (0..2).map(|i| net.add_station(&format!("t{i}"))).collect();
    let r: Vec<usize> = (0..3).map(|i| net.add_station(&format!("r{i}"))).collect();
    let links = [
        (hub, s[0]),
        (hub, s[1]),
        (hub, s[2]),
        (hub, s[3]),
        (s[0], t[0]),
        (t[0], t[1]),
        (s[1], r[0]),
        (r[0], r[1]),
        (r[1], r[2]),
        (r[2], s[1]),
    ];
    for (i, (a, b)) in links.into_iter().enumerate() {
        let edge = CorridorEdge::between(a, b)
            .named(&format!("e{i}"))
            .trains_per_hour(demands[DEMAND_RANK[i]])
            .train_speed_kmh(speeds[SPEED_RANK[i]])
            .train_length_m(trains_m[LENGTH_RANK[i]])
            .length_km(lengths_km[LENGTH_RANK[(i + 3) % 10]])
            .double_track(DOUBLE_TRACK.contains(&i));
        net.add_edge(edge).map_err(|e| format!("edge {i}: {e}"))?;
    }
    Ok(net)
}

/// The model-ISD search space both network engines run.
fn network_space() -> SearchSpace {
    SearchSpace::new()
        .sample_step(Meters::new(10.0))
        .isd_search(IsdSearch::model_paper_grid())
}

fn optimizer(workers: usize) -> NetworkOptimizer {
    NetworkOptimizer::new()
        .workers(workers)
        .margin_floor_db(MARGIN_FLOOR_DB)
}

fn day_engine(workers: usize, seed: u64) -> NetworkDayEngine {
    NetworkDayEngine::new()
        .workers(workers)
        .reps(NETWORK_REPS)
        .seed(seed)
}

// ---------------------------------------------------------------------------
// Traced passes
// ---------------------------------------------------------------------------

/// Renders `emit`'s rows into a digest inside the `render` span.
fn traced_render(
    trace: &mut Trace,
    rows: u64,
    emit: impl FnOnce(&mut DigestSink) -> Result<(), String>,
) -> Result<String, String> {
    let mut sink = DigestSink::new();
    trace.span("render.busy_s", || emit(&mut sink))?;
    trace.count("render.rows", rows);
    trace.count("render.bytes", sink.bytes());
    Ok(sink.hex())
}

/// One cell's energy splits, in the engine's `[baseline, continuous,
/// sleep, solar]` order.
fn splits(cell: &ScenarioCell) -> [SegmentEnergy; 4] {
    let params = cell.params();
    let at = |n, isd, strategy| AnalyticEvaluator.average_power_per_km(params, n, isd, strategy);
    [
        at(
            0,
            params.conventional_isd(),
            EnergyStrategy::SleepModeRepeaters,
        ),
        at(
            cell.nodes(),
            cell.isd(),
            EnergyStrategy::ContinuousRepeaters,
        ),
        at(cell.nodes(), cell.isd(), EnergyStrategy::SleepModeRepeaters),
        at(
            cell.nodes(),
            cell.isd(),
            EnergyStrategy::SolarPoweredRepeaters,
        ),
    ]
}

/// The daily load of one service repeater at the cell's deployment ISD
/// for `active_h` full-load hours: asleep through the night pause,
/// serving bursts during the service window.
fn repeater_load(cell: &ScenarioCell, active_h: f64) -> DailyLoadProfile {
    let params = cell.params();
    let lp = params.lp_node();
    let night_h = (24.0 - params.timetable().service_window().value())
        .round()
        .clamp(0.0, 23.0);
    let day_window_h = 24.0 - night_h;
    let day_avg_w = (lp.full_load_power().value() * active_h
        + lp.p_sleep().value() * (day_window_h - active_h).max(0.0))
        / day_window_h;
    DailyLoadProfile::repeater_profile(lp.p_sleep(), Watts::new(day_avg_w), night_h as usize)
}

fn traced_sweep(
    grid: &ScenarioGrid,
    trace: &mut Trace,
    reference_workers: usize,
) -> Result<Traced, String> {
    let options = SizingOptions::paper_default();
    let rungs = options.pv_candidates.len() * options.battery_candidates.len();
    let mut touched: BTreeSet<&'static str> = BTreeSet::new();
    let mut traced = Vec::with_capacity(grid.len());
    let started = Instant::now();
    for index in 0..grid.len() {
        let cell = trace
            .span("grid.busy_s", || grid.cell_at(index))
            .map_err(|e| format!("cell {index}: {e}"))?;
        trace.count("grid.cells", 1);
        let energy = trace.span("energy.busy_s", || splits(&cell));
        let params = cell.params();
        let section = TrackSection::around(cell.isd() / 2.0, params.lp_spacing());
        let active_h = trace.span("energy.busy_s", || energy::active_hours(params, section));
        trace.count("energy.calls", 5);

        let load = repeater_load(&cell, active_h.value());
        let cold = touched.insert(cell.location().name());
        let t = Instant::now();
        let fit = sizing::size_for_zero_downtime(cell.location().clone(), load, &options);
        let busy = t.elapsed().as_secs_f64();
        trace.add_busy("pv.busy_s", busy);
        if cold {
            trace.add_busy("pv.cold_busy_s", busy);
            trace.count("pv.env_years_built", options.seeds.len() as u64);
        }
        trace.count("pv.sizings", 1);
        let (tried, pv) = match &fit {
            Some(fit) => {
                let pv_rung = options
                    .pv_candidates
                    .iter()
                    .position(|pv| pv == &fit.pv)
                    .ok_or("sizing picked an array off the ladder")?;
                let battery_rung = options
                    .battery_candidates
                    .iter()
                    .position(|b| *b == fit.battery_capacity)
                    .ok_or("sizing picked a battery off the ladder")?;
                let outcome = PvOutcome::Sized {
                    pv_wp: fit.pv.peak().value(),
                    battery_wh: fit.battery_capacity.value(),
                    days_full_pct: fit.mean_full_battery_fraction() * 100.0,
                };
                (
                    pv_rung * options.battery_candidates.len() + battery_rung + 1,
                    outcome,
                )
            }
            None => {
                trace.count("pv.unsolvable", 1);
                (rungs, PvOutcome::Unsolvable)
            }
        };
        trace.count("pv.candidates_tried", tried as u64);
        trace.count(
            "pv.battery_hours_stepped",
            (tried * options.seeds.len()) as u64 * HOURS_PER_YEAR,
        );
        traced.push((cell, energy, pv));
    }
    let loop_s = started.elapsed().as_secs_f64();

    let report = SweepEngine::new()
        .workers(reference_workers)
        .pv_sizing(true)
        .run(grid)
        .map_err(|e| format!("sweep reference: {e}"))?;
    if report.len() != traced.len() {
        return Err("traced sweep and engine disagree on the cell count".into());
    }
    for (result, (cell, [baseline, continuous, sleep, solar], pv)) in
        report.results().iter().zip(&traced)
    {
        let same = result.cell() == cell
            && result.evaluator() == "analytic"
            && result.baseline() == baseline
            && result.split(EnergyStrategy::ContinuousRepeaters) == continuous
            && result.split(EnergyStrategy::SleepModeRepeaters) == sleep
            && result.split(EnergyStrategy::SolarPoweredRepeaters) == solar
            && result.pv() == *pv;
        if !same {
            return Err(format!(
                "traced sweep differs from the engine at cell {}",
                cell.index()
            ));
        }
    }

    let t = Instant::now();
    let render_sha256 = traced_render(trace, report.len() as u64, |sink| {
        report
            .stream_into(RowFormat::Csv, sink)
            .map(|_| ())
            .map_err(|e| format!("render: {e}"))
    })?;
    Ok(Traced {
        wall_s: loop_s + t.elapsed().as_secs_f64(),
        render_sha256,
    })
}

fn traced_mc(
    grid: &ScenarioGrid,
    plan: &ReplicationPlan,
    trace: &mut Trace,
    reference_workers: usize,
) -> Result<Traced, String> {
    let evaluator = EventDrivenEvaluator::with_policy(WakePolicy::instant());
    let spec = plan.traffic_spec();
    let mut traced: Vec<[SummaryStats; 5]> = Vec::with_capacity(grid.len());
    let started = Instant::now();
    for index in 0..grid.len() {
        let cell = trace
            .span("grid.busy_s", || grid.cell_at(index))
            .map_err(|e| format!("cell {index}: {e}"))?;
        trace.count("grid.cells", 1);
        let params = cell.params();
        let model = trace.span("traffic.busy_s", || spec.model_for(params.timetable()));
        let deployment = trace.span("events.deploy_busy_s", || {
            evaluator.replicator(params, cell.nodes(), cell.isd())
        });
        let baseline = trace.span("events.baseline_busy_s", || {
            evaluator.replicator(params, 0, params.conventional_isd())
        });
        let mut accumulators = [Welford::new(); 5];
        for seed in plan.seeds().cell_seeds(index as u64, plan.replications()) {
            let passes = trace.span("traffic.busy_s", || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                model.passes(&mut rng)
            });
            trace.count("traffic.days", 1);
            trace.count("traffic.passes", passes.len() as u64);

            let deployment_report =
                trace.span("events.deploy_busy_s", || deployment.simulate_day(&passes));
            let baseline_report =
                trace.span("events.baseline_busy_s", || baseline.simulate_day(&passes));
            trace.count("events.deploy_days", 1);
            trace.count("events.baseline_days", 1);
            trace.count(
                "events.processed",
                (deployment_report.events_processed() + baseline_report.events_processed()) as u64,
            );

            let values = trace.span("events.power_busy_s", || {
                let sleep = EventDrivenEvaluator::power_from_report(
                    params,
                    cell.nodes(),
                    cell.isd(),
                    EnergyStrategy::SleepModeRepeaters,
                    &deployment_report,
                );
                let base = EventDrivenEvaluator::power_from_report(
                    params,
                    0,
                    params.conventional_isd(),
                    EnergyStrategy::SleepModeRepeaters,
                    &baseline_report,
                );
                let service: Vec<f64> = deployment_report
                    .nodes_of(NodeKind::ServiceRepeater)
                    .map(|node| node.trace().daily_energy(params.lp_node()).value())
                    .collect();
                let repeater_wh = if service.is_empty() {
                    0.0
                } else {
                    service.iter().sum::<f64>() / service.len() as f64
                };
                [
                    passes.len() as f64,
                    base.total().value(),
                    sleep.total().value(),
                    sleep.savings_vs(&base) * 100.0,
                    repeater_wh,
                ]
            });
            trace.span("fold.busy_s", || {
                for (acc, value) in accumulators.iter_mut().zip(values) {
                    acc.push(value);
                }
            });
            trace.count("fold.samples", values.len() as u64);
        }
        traced.push(accumulators.map(|acc| acc.summary()));
    }
    let loop_s = started.elapsed().as_secs_f64();

    let report = McEngine::new()
        .workers(reference_workers)
        .run(grid, plan)
        .map_err(|e| format!("mc reference: {e}"))?;
    if report.len() != traced.len() {
        return Err("traced mc and engine disagree on the cell count".into());
    }
    for (index, (result, stats)) in report.results().iter().zip(&traced).enumerate() {
        for metric in McMetric::ALL {
            if !same_bits(result.stats(metric), &stats[metric.index()]) {
                return Err(format!(
                    "traced mc differs from the engine at cell {index}, metric {}",
                    metric.key()
                ));
            }
        }
    }

    let t = Instant::now();
    let render_sha256 = traced_render(trace, report.len() as u64, |sink| {
        report
            .stream_into(RowFormat::Csv, sink)
            .map(|_| ())
            .map_err(|e| format!("render: {e}"))
    })?;
    Ok(Traced {
        wall_s: loop_s + t.elapsed().as_secs_f64(),
        render_sha256,
    })
}

fn same_bits(a: &SummaryStats, b: &SummaryStats) -> bool {
    a.n == b.n
        && [a.mean, a.stddev, a.ci95, a.min, a.max]
            .iter()
            .zip([b.mean, b.stddev, b.ci95, b.min, b.max])
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn traced_network(
    net: &CorridorNetwork,
    space: &SearchSpace,
    seed: u64,
    trace: &mut Trace,
    reference_workers: usize,
) -> Result<Traced, String> {
    let started = Instant::now();
    let report = trace
        .span("network.search_busy_s", || optimizer(1).run(net, space))
        .map_err(|e| format!("optimizer: {e}"))?;
    trace.count("network.edges", net.edge_count() as u64);
    trace.count("network.sleep_decisions", report.plan().len() as u64);

    // the day engine repeats the plain (no margin trading) search
    // before its days; timing that search on its own, with the coverage
    // memo as warm as the day engine will find it, leaves the day phase
    let t = Instant::now();
    NetworkOptimizer::new()
        .workers(1)
        .run(net, space)
        .map_err(|e| format!("plain optimizer: {e}"))?;
    let inner_search_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let days = day_engine(1, seed)
        .run(net, space)
        .map_err(|e| format!("network day: {e}"))?;
    trace.add_busy(
        "network.day_busy_s",
        (t.elapsed().as_secs_f64() - inner_search_s).max(0.0),
    );
    trace.count("network.routes", days.routes().len() as u64);
    trace.count(
        "network.edge_days",
        (days.per_edge().len() * days.reps()) as u64,
    );

    let rows = (report.len() + days.per_edge().len()) as u64;
    let render_sha256 = traced_render(trace, rows, |sink| {
        report
            .stream_frontier_into(RowFormat::Csv, sink)
            .map_err(|e| format!("frontier: {e}"))?;
        sink.write(&report.schedule_csv())
            .map_err(|e| format!("schedule: {e}"))?;
        days.stream_into(RowFormat::Csv, sink)
            .map(|_| ())
            .map_err(|e| format!("render: {e}"))
    })?;
    let wall_s = started.elapsed().as_secs_f64() - inner_search_s;

    // the engine at the reference worker count must agree byte for byte
    let reference = day_engine(reference_workers, seed)
        .run(net, space)
        .map_err(|e| format!("network day reference: {e}"))?;
    if reference.to_csv() != days.to_csv() {
        return Err("network day differs between 1 and the reference workers".into());
    }
    Ok(Traced {
        wall_s,
        render_sha256,
    })
}
