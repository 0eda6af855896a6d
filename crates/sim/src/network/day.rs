//! The stochastic network day: route decomposition, per-edge pass
//! sampling and the Monte-Carlo time-domain engine over the graph.
//!
//! The per-edge Pareto search prices each corridor analytically at its
//! static demand. This module is the network's time-domain counterpart:
//! the edge demands are decomposed into **routes** (train paths that
//! cross junctions), each route samples seeded Poisson departures per
//! replication, and every edge's day is replayed through the
//! [`NetworkDaySimulator`] — so adjacent edges see the *same* trains at
//! junction-consistent times instead of independently sampled traffic.
//! An edge-day draws only the routes that traverse its edge: a route's
//! departures depend on `(seed, route, rep)` alone, so they are the same
//! trains every other edge of the route sees.
//!
//! The decomposition is a deterministic greedy flow split: seed at the
//! edge with the highest remaining demand, extend the path through
//! stations along the highest-demand continuation (never revisiting a
//! station), route the minimum remaining demand along the path, and
//! repeat until every edge's demand is carried. Per-edge rates sum back
//! to the edge demands by construction.

use corridor_core::sink::{RowFormat, RowSink, SinkResult, StringSink};
use corridor_core::stats::Welford;
use corridor_core::{EnergyStrategy, ScenarioError};
use corridor_events::{EventDrivenEvaluator, Leg, NetworkDaySimulator, SimReport};
use corridor_traffic::{PoissonTimetable, SeedSequence, Train, TrainPass};
use corridor_units::{Hours, KilometersPerHour, Meters};
use rand::rngs::StdRng;
use rand::SeedableRng;

use core::fmt::Write as _;

use crate::optimize::FrontierPoint;
use crate::report::{csv_field, json_string};
use crate::stream::{self, ChunkRows, RowPair, StreamError, StreamSummary};

use super::graph::{CorridorNetwork, NetworkError};
use super::NetworkOptimizer;
use crate::optimize::SearchSpace;
use corridor_core::sink::RowEmitter;

/// The CSV header of the streamed network-day rows.
pub const NETWORK_DAY_CSV_HEADER: &str = "edge,edge_name,demand_tph,routes,nodes,isd_m,reps,\
mean_wh_day,ci95_wh_day,mean_passes,mean_wakes";

/// One train path through the network: the legs it traverses in order
/// and the daily rate it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainRoute {
    legs: Vec<Leg>,
    /// The legs of the opposite run: reversed, each flipped.
    back: Vec<Leg>,
    rate_tph: f64,
    train: Train,
}

impl TrainRoute {
    /// The legs, in traversal order.
    pub fn legs(&self) -> &[Leg] {
        &self.legs
    }

    /// The demand the route carries, trains per hour.
    pub fn rate_tph(&self) -> f64 {
        self.rate_tph
    }

    /// The rolling stock (taken from the route's first edge).
    pub fn train(&self) -> Train {
        self.train
    }

    /// True if any leg traverses `edge`.
    pub fn traverses(&self, edge: usize) -> bool {
        self.legs.iter().any(|l| l.edge() == edge)
    }
}

/// Below this the remaining demand of an edge counts as routed.
const DEMAND_TOL: f64 = 1e-9;

/// Deterministic greedy flow decomposition of the edge demands into
/// junction-crossing routes. Per-edge route rates sum to the edge
/// demand exactly (up to [`DEMAND_TOL`]).
pub(crate) fn decompose_routes(net: &CorridorNetwork) -> Vec<TrainRoute> {
    let mut remaining: Vec<f64> = net.edges().iter().map(|e| e.demand_tph()).collect();
    let mut routes = Vec::new();
    loop {
        // seed: the edge with the highest remaining demand (lowest
        // index on ties)
        let mut seed: Option<usize> = None;
        for e in 0..remaining.len() {
            if remaining[e] > DEMAND_TOL && seed.is_none_or(|s| remaining[e] > remaining[s]) {
                seed = Some(e);
            }
        }
        let Some(seed) = seed else { break };

        let mut path = std::collections::VecDeque::from([seed]);
        let mut visited = vec![false; net.station_count()];
        let (mut front, mut back) = (net.edge(seed).a(), net.edge(seed).b());
        visited[front] = true;
        visited[back] = true;
        // grow both ends along the highest-demand continuation
        for grow_back in [true, false] {
            loop {
                let station = if grow_back { back } else { front };
                let mut next: Option<usize> = None;
                for e in net.incident_edges(station) {
                    if remaining[e] <= DEMAND_TOL || path.contains(&e) {
                        continue;
                    }
                    let Some(other) = net.edge(e).other_end(station) else {
                        continue;
                    };
                    if visited[other] {
                        continue;
                    }
                    if next.is_none_or(|n| remaining[e] > remaining[n]) {
                        next = Some(e);
                    }
                }
                let Some(e) = next else { break };
                let Some(other) = net.edge(e).other_end(station) else {
                    break;
                };
                visited[other] = true;
                if grow_back {
                    path.push_back(e);
                    back = other;
                } else {
                    path.push_front(e);
                    front = other;
                }
            }
        }

        let rate = path
            .iter()
            .map(|&e| remaining[e])
            .fold(f64::INFINITY, f64::min);
        for &e in &path {
            remaining[e] -= rate;
        }
        // orient the legs walking from the front station
        let mut legs = Vec::with_capacity(path.len());
        let mut at = front;
        for &e in &path {
            let edge = net.edge(e);
            if edge.a() == at {
                legs.push(Leg::forward(e));
                at = edge.b();
            } else {
                legs.push(Leg::reverse(e));
                at = edge.a();
            }
        }
        let first = net.edge(legs[0].edge());
        let train = Train::new(
            Meters::new(first.train_len_m()),
            KilometersPerHour::new(first.speed_kmh()).meters_per_second(),
        );
        let back = (legs.iter().rev())
            .map(|l| {
                if l.is_reversed() {
                    Leg::forward(l.edge())
                } else {
                    Leg::reverse(l.edge())
                }
            })
            .collect();
        routes.push(TrainRoute {
            legs,
            back,
            rate_tph: rate,
            train,
        });
    }
    routes
}

/// One edge's `(up, down)` passes in segment-local time.
pub(crate) type EdgePasses = (Vec<TrainPass>, Vec<TrainPass>);

/// Route `r`'s Poisson departures in replication `rep` over the shared
/// service window, seeded by `SeedSequence(seed).derive(r, rep)` so
/// every `(route, rep)` stream is independent and reproducible.
fn route_departures(
    net: &CorridorNetwork,
    route: &TrainRoute,
    r: usize,
    seed: u64,
    rep: u64,
) -> Vec<TrainPass> {
    let mut rng = StdRng::seed_from_u64(SeedSequence::new(seed).derive(r as u64, rep));
    let start = PoissonTimetable::paper_rate().service_start();
    let window = Hours::new(net.shared_window_h());
    PoissonTimetable::new(route.rate_tph, window, start, route.train).sample_passes(&mut rng)
}

/// Samples edge `e`'s day of replication `rep` into `passes` (cleared
/// first), ordered by origin time. Only the routes that traverse `e`
/// are drawn; each departure runs the route in alternating directions
/// (forward first), walked by
/// [`NetworkDaySimulator::push_edge_passes`]. Each route's passes are
/// already in time order, so the stable sorts merge a few sorted runs.
pub(crate) fn sample_edge_passes(
    net: &CorridorNetwork,
    sim: &NetworkDaySimulator,
    routes: &[TrainRoute],
    e: usize,
    seed: u64,
    rep: u64,
    passes: &mut EdgePasses,
) {
    let (up, down) = passes;
    up.clear();
    down.clear();
    for (r, route) in routes
        .iter()
        .enumerate()
        .filter(|(_, route)| route.traverses(e))
    {
        for (i, pass) in route_departures(net, route, r, seed, rep)
            .iter()
            .enumerate()
        {
            let legs = if i % 2 == 0 { &route.legs } else { &route.back };
            sim.push_edge_passes(e, route.train, pass.origin_time(), legs, up, down);
        }
    }
    for list in [up, down] {
        list.sort_by(|a, b| a.origin_time().value().total_cmp(&b.origin_time().value()));
    }
}

/// Builds the network-day simulator over the per-edge picks: pick
/// geometry where an edge deploys, the conventional mast-only segment
/// where it does not.
pub(crate) fn build_day_simulator(
    net: &CorridorNetwork,
    picks: &[Option<FrontierPoint>],
) -> NetworkDaySimulator {
    let mut sim = NetworkDaySimulator::new();
    for (e, pick) in picks.iter().enumerate() {
        let (n, isd) = match pick {
            Some(p) => (p.nodes, p.isd),
            None => (0, Meters::new(net.shared_conventional_isd_m())),
        };
        sim.add_edge(
            n,
            isd,
            Meters::new(net.shared_lp_spacing_m()),
            Meters::new(net.edge(e).length_km_value() * 1000.0),
        );
    }
    sim
}

/// The representative simulated day the margin-trading scheduler prices
/// interior sleeps against: every edge's replication-0 passes and
/// simulated report.
pub(crate) struct DayContext {
    pub(crate) sim: NetworkDaySimulator,
    pub(crate) passes: Vec<EdgePasses>,
    pub(crate) reports: Vec<SimReport>,
}

/// Builds the scheduler's day context at `seed` (replication 0).
pub(crate) fn build_day_context(
    net: &CorridorNetwork,
    picks: &[Option<FrontierPoint>],
    seed: u64,
) -> DayContext {
    let routes = decompose_routes(net);
    let sim = build_day_simulator(net, picks);
    let mut passes = vec![EdgePasses::default(); net.edge_count()];
    for (e, day) in passes.iter_mut().enumerate() {
        sample_edge_passes(net, &sim, &routes, e, seed, 0, day);
    }
    let reports = (passes.iter().enumerate())
        .map(|(e, (up, down))| sim.simulate_edge(e, up, down))
        .collect();
    DayContext {
        sim,
        passes,
        reports,
    }
}

/// Per-edge Monte-Carlo statistics of the simulated network days.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeDayStats {
    /// The edge index.
    pub edge: usize,
    /// The edge's aggregate demand, trains per hour.
    pub demand_tph: f64,
    /// Number of routes traversing the edge.
    pub routes: usize,
    /// Deployed service repeaters (the pick's count).
    pub nodes: usize,
    /// Simulated segment ISD in metres.
    pub isd_m: f64,
    /// Mean daily edge energy over the replications, Wh/day.
    pub mean_wh_day: f64,
    /// Student-t 95 % confidence half-width of the daily energy, Wh.
    pub ci95_wh_day: f64,
    /// Mean simulated passes per day on the representative segment.
    pub mean_passes: f64,
    /// Mean wake transitions per day across the segment's nodes.
    pub mean_wakes: f64,
}

/// Monte-Carlo engine for stochastic network days: runs the per-edge
/// deployment search, decomposes routes, then replays `reps` seeded
/// days per edge through the time-domain backend.
///
/// # Examples
///
/// ```no_run
/// use corridor_sim::{CorridorNetwork, NetworkDayEngine, SearchSpace};
/// use corridor_units::Meters;
///
/// let net = CorridorNetwork::by_name("wye3").unwrap();
/// let space = SearchSpace::new().sample_step(Meters::new(10.0));
/// let report = NetworkDayEngine::new().reps(5).run(&net, &space).unwrap();
/// assert_eq!(report.per_edge().len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkDayEngine {
    workers: Option<usize>,
    reps: usize,
    seed: u64,
}

impl NetworkDayEngine {
    /// An engine at 20 replications, master seed 42 and automatic
    /// worker count.
    pub fn new() -> Self {
        NetworkDayEngine {
            workers: None,
            reps: 20,
            seed: 42,
        }
    }

    /// Sets an explicit worker count (an explicit `0` is rejected at
    /// run time, mirroring the other engines).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the number of replications per edge.
    #[must_use]
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps;
        self
    }

    /// Sets the master seed of the day sampler.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the deployment search, then the Monte-Carlo day sweep, and
    /// assembles the typed report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkOptimizer::run`], plus
    /// [`ScenarioError::ZeroWorkers`] for zero replications.
    pub fn run(
        &self,
        net: &CorridorNetwork,
        space: &SearchSpace,
    ) -> Result<NetworkDayReport, NetworkError> {
        let (routes, sim, picks) = self.prepare(net, space)?;
        let workers = stream::resolve_workers(self.workers).map_err(NetworkError::Scenario)?;
        let per_edge = stream::collect(workers, 0..net.edge_count(), |e| {
            self.edge_stats(net, &routes, &sim, &picks, e)
        })
        .map_err(NetworkError::Scenario)?;
        // every departure of a route crosses a station between each
        // pair of its legs
        let mut crossings = Welford::new();
        for rep in 0..self.reps as u64 {
            let crossed: usize = (routes.iter().enumerate())
                .filter(|(_, route)| route.legs.len() > 1)
                .map(|(r, route)| {
                    route_departures(net, route, r, self.seed, rep).len() * (route.legs.len() - 1)
                })
                .sum();
            crossings.push(crossed as f64);
        }
        Ok(NetworkDayReport {
            network: net.clone(),
            routes,
            per_edge,
            reps: self.reps,
            seed: self.seed,
            crossings_per_day: crossings.mean(),
        })
    }

    /// Streams the per-edge day rows into `sink` in edge order; the
    /// emitted bytes are identical whatever the worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkDayEngine::run`], plus
    /// [`NetworkError::Stream`] if the sink refuses a row.
    pub fn stream(
        &self,
        net: &CorridorNetwork,
        space: &SearchSpace,
        format: RowFormat,
        sink: &mut dyn RowSink,
    ) -> Result<StreamSummary, NetworkError> {
        let (routes, sim, picks) = self.prepare(net, space)?;
        let workers = stream::resolve_workers(self.workers).map_err(NetworkError::Scenario)?;
        let mut rows = RowEmitter::begin(sink, format, NETWORK_DAY_CSV_HEADER)
            .map_err(|e| NetworkError::Stream(StreamError::Sink(e)))?;
        let summary = stream::drive(
            workers,
            0..net.edge_count(),
            format,
            |e| {
                let stats = self.edge_stats(net, &routes, &sim, &picks, e)?;
                Ok(ChunkRows {
                    rows: vec![RowPair {
                        csv: render_day_row(net, &stats, self.reps, RowFormat::Csv),
                        json: render_day_row(net, &stats, self.reps, RowFormat::Json),
                    }],
                    cache_hits: 0,
                    cache_misses: 0,
                })
            },
            &mut |row| rows.row(row).map_err(StreamError::Sink),
        )
        .map_err(NetworkError::Stream)?;
        rows.finish()
            .map_err(|e| NetworkError::Stream(StreamError::Sink(e)))?;
        Ok(summary)
    }

    /// Shared front half of `run`/`stream`: validation, the per-edge
    /// deployment search (for picks), route decomposition and the day
    /// simulator.
    #[allow(clippy::type_complexity)]
    fn prepare(
        &self,
        net: &CorridorNetwork,
        space: &SearchSpace,
    ) -> Result<
        (
            Vec<TrainRoute>,
            NetworkDaySimulator,
            Vec<Option<FrontierPoint>>,
        ),
        NetworkError,
    > {
        if self.workers == Some(0) || self.reps == 0 {
            return Err(ScenarioError::ZeroWorkers.into());
        }
        net.validate()?;
        let optimizer = match self.workers {
            Some(w) => NetworkOptimizer::new().workers(w),
            None => NetworkOptimizer::new(),
        };
        let picks = optimizer.run(net, space)?.picks().to_vec();
        let routes = decompose_routes(net);
        let sim = build_day_simulator(net, &picks);
        Ok((routes, sim, picks))
    }

    /// One edge's Monte-Carlo fold: `reps` seeded days, Welford
    /// accumulation of daily energy / passes / wakes. A pure function
    /// of `(edge, seed)` — the parallel sweeps stay byte-deterministic.
    fn edge_stats(
        &self,
        net: &CorridorNetwork,
        routes: &[TrainRoute],
        sim: &NetworkDaySimulator,
        picks: &[Option<FrontierPoint>],
        e: usize,
    ) -> Result<EdgeDayStats, ScenarioError> {
        let edge = net.edge(e);
        let cell = net.edge_cell(e)?;
        let params = cell.params();
        let n = picks[e].as_ref().map_or(0, |p| p.nodes);
        let isd = sim.edge_isd(e);
        let mut energy = Welford::new();
        let mut passes = Welford::new();
        let mut wakes = Welford::new();
        let mut day = EdgePasses::default();
        for rep in 0..self.reps as u64 {
            sample_edge_passes(net, sim, routes, e, self.seed, rep, &mut day);
            let report = sim.simulate_edge(e, &day.0, &day.1);
            let split = EventDrivenEvaluator::power_from_report(
                params,
                n,
                isd,
                EnergyStrategy::SleepModeRepeaters,
                &report,
            );
            energy.push(split.total().value() * 24.0 * edge.length_km_value());
            passes.push(report.passes() as f64);
            wakes.push(
                report
                    .nodes()
                    .iter()
                    .map(|node| node.trace().wakes() as f64)
                    .sum(),
            );
        }
        Ok(EdgeDayStats {
            edge: e,
            demand_tph: edge.demand_tph(),
            routes: routes.iter().filter(|r| r.traverses(e)).count(),
            nodes: n,
            isd_m: isd.value(),
            mean_wh_day: energy.mean(),
            ci95_wh_day: energy.ci95(),
            mean_passes: passes.mean(),
            mean_wakes: wakes.mean(),
        })
    }
}

impl Default for NetworkDayEngine {
    /// Returns [`NetworkDayEngine::new`].
    fn default() -> Self {
        NetworkDayEngine::new()
    }
}

/// Renders one edge's day row in the requested format.
fn render_day_row(
    net: &CorridorNetwork,
    s: &EdgeDayStats,
    reps: usize,
    format: RowFormat,
) -> String {
    match format {
        RowFormat::Csv => {
            let mut out = String::with_capacity(128);
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.0},{},{:.3},{:.3},{:.2},{:.2}",
                s.edge,
                csv_field(net.edge_name(s.edge)),
                s.demand_tph,
                s.routes,
                s.nodes,
                s.isd_m,
                reps,
                s.mean_wh_day,
                s.ci95_wh_day,
                s.mean_passes,
                s.mean_wakes,
            );
            out
        }
        RowFormat::Json => {
            let mut out = String::with_capacity(256);
            let _ = write!(
                out,
                "  {{\"edge\": {}, \"edge_name\": {}, \"demand_tph\": {}, \"routes\": {}, \
                 \"nodes\": {}, \"isd_m\": {:.0}, \"reps\": {}, \"mean_wh_day\": {:.3}, \
                 \"ci95_wh_day\": {:.3}, \"mean_passes\": {:.2}, \"mean_wakes\": {:.2}}}",
                s.edge,
                json_string(net.edge_name(s.edge)),
                s.demand_tph,
                s.routes,
                s.nodes,
                s.isd_m,
                reps,
                s.mean_wh_day,
                s.ci95_wh_day,
                s.mean_passes,
                s.mean_wakes,
            );
            out
        }
    }
}

/// The simulated network days: per-edge Monte-Carlo statistics plus the
/// route decomposition that drove them.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkDayReport {
    network: CorridorNetwork,
    routes: Vec<TrainRoute>,
    per_edge: Vec<EdgeDayStats>,
    reps: usize,
    seed: u64,
    crossings_per_day: f64,
}

impl NetworkDayReport {
    /// The network the days were simulated on.
    pub fn network(&self) -> &CorridorNetwork {
        &self.network
    }

    /// The decomposed routes, in decomposition order.
    pub fn routes(&self) -> &[TrainRoute] {
        &self.routes
    }

    /// The per-edge statistics, in edge order.
    pub fn per_edge(&self) -> &[EdgeDayStats] {
        &self.per_edge
    }

    /// Replications per edge.
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// The master seed of the day sampler.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mean junction crossings per simulated day.
    pub fn crossings_per_day(&self) -> f64 {
        self.crossings_per_day
    }

    /// Mean total network energy per day, Wh: the sum of the per-edge
    /// means.
    pub fn network_mean_wh_day(&self) -> f64 {
        self.per_edge.iter().map(|s| s.mean_wh_day).sum()
    }

    /// Streams the per-edge day rows into `sink`; byte-identical to
    /// [`NetworkDayEngine::stream`] on the same inputs.
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`SinkError`](corridor_core::sink::SinkError).
    pub fn stream_into(&self, format: RowFormat, sink: &mut dyn RowSink) -> SinkResult<u64> {
        let mut rows = RowEmitter::begin(sink, format, NETWORK_DAY_CSV_HEADER)?;
        for s in &self.per_edge {
            rows.row(&render_day_row(&self.network, s, self.reps, format))?;
        }
        rows.finish()
    }

    /// Renders the day rows as CSV.
    pub fn to_csv(&self) -> String {
        StringSink::render(1024, |sink| self.stream_into(RowFormat::Csv, sink))
    }

    /// Renders the day rows as a JSON array.
    pub fn to_json(&self) -> String {
        StringSink::render(2048, |sink| self.stream_into(RowFormat::Json, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_events::TrainItinerary;

    fn quick_space() -> SearchSpace {
        SearchSpace::new().sample_step(Meters::new(10.0))
    }

    /// Reference sampler: every route's itineraries of one replication,
    /// each departure alternating the route's direction (the whole-network
    /// sampling every edge-day used before the per-edge sampler).
    fn sample_itineraries(
        net: &CorridorNetwork,
        routes: &[TrainRoute],
        seed: u64,
        rep: u64,
    ) -> Vec<TrainItinerary> {
        let seq = SeedSequence::new(seed);
        let start = PoissonTimetable::paper_rate().service_start();
        let window = Hours::new(net.shared_window_h());
        let mut itineraries = Vec::new();
        for (r, route) in routes.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seq.derive(r as u64, rep));
            let timetable = PoissonTimetable::new(route.rate_tph, window, start, route.train);
            for (i, pass) in timetable.sample_passes(&mut rng).iter().enumerate() {
                let legs = if i % 2 == 0 {
                    route.legs.clone()
                } else {
                    reversed_legs(route)
                };
                itineraries.push(TrainItinerary::new(route.train, pass.origin_time(), legs));
            }
        }
        itineraries
    }

    /// Reference reversal: the route's legs reversed, each flipped.
    fn reversed_legs(route: &TrainRoute) -> Vec<Leg> {
        route
            .legs
            .iter()
            .rev()
            .map(|l| {
                if l.is_reversed() {
                    Leg::forward(l.edge())
                } else {
                    Leg::reverse(l.edge())
                }
            })
            .collect()
    }

    /// Reference split of itineraries into `edge`'s `(up, down)` passes,
    /// with the edge lengths and ISDs the day simulator was built from.
    fn edge_passes(
        net: &CorridorNetwork,
        sim: &NetworkDaySimulator,
        edge: usize,
        itineraries: &[TrainItinerary],
    ) -> EdgePasses {
        let length = |e: usize| Meters::new(net.edge(e).length_km_value() * 1000.0);
        let mut up = Vec::new();
        let mut down = Vec::new();
        for it in itineraries {
            let mut clock = it.departure();
            for leg in it.legs() {
                let length = length(leg.edge());
                if leg.edge() == edge {
                    if leg.is_reversed() {
                        let lead = (length - sim.edge_isd(edge)) / it.train().speed();
                        down.push(TrainPass::new(it.train(), clock + lead));
                    } else {
                        up.push(TrainPass::new(it.train(), clock));
                    }
                }
                clock += length / it.train().speed();
            }
        }
        (up, down)
    }

    /// A pass list in a canonical order, for multiset comparison.
    fn canonical(passes: &[TrainPass]) -> Vec<(u64, u64, u64)> {
        let mut bits: Vec<_> = passes
            .iter()
            .map(|p| {
                (
                    p.origin_time().value().to_bits(),
                    p.train().speed().value().to_bits(),
                    p.train().length().value().to_bits(),
                )
            })
            .collect();
        bits.sort_unstable();
        bits
    }

    /// Every float of a report as bits, plus its counts.
    fn report_bits(report: &SimReport) -> Vec<u64> {
        let mut bits = vec![
            report.horizon().value().to_bits(),
            report.events_processed() as u64,
            report.passes() as u64,
        ];
        for node in report.nodes() {
            let (s, t) = (node.section(), node.trace());
            bits.extend(
                [s.start(), s.end()]
                    .map(|m| m.value().to_bits())
                    .into_iter()
                    .chain(
                        [
                            t.asleep(),
                            t.waking(),
                            t.active(),
                            t.drain(),
                            t.powered(),
                            t.uncovered(),
                        ]
                        .map(|x| x.value().to_bits()),
                    ),
            );
            bits.push(t.wakes() as u64);
        }
        bits
    }

    #[test]
    fn edge_sampler_matches_the_whole_network_reference() {
        let mut nets: Vec<CorridorNetwork> = ["line3", "wye3", "star4", "cycle4"]
            .iter()
            .map(|name| CorridorNetwork::by_name(name).unwrap())
            .collect();
        // the line/star/cycle families of the network proptests
        let tph = [2.0, 4.0, 8.0, 12.0];
        for n_edges in 1..=4 {
            let demands: Vec<f64> = tph.iter().copied().cycle().take(n_edges).collect();
            let ring: Vec<f64> = tph.iter().copied().cycle().take(n_edges.max(3)).collect();
            nets.push(CorridorNetwork::line(&demands));
            nets.push(CorridorNetwork::star(&demands));
            nets.push(CorridorNetwork::cycle(&ring));
        }
        let space = quick_space().node_counts(vec![0, 10]);
        for net in &nets {
            let picks = NetworkOptimizer::new().workers(1).run(net, &space).unwrap();
            let sim = build_day_simulator(net, picks.picks());
            let routes = decompose_routes(net);
            let mut day = EdgePasses::default();
            for (seed, rep) in [(42, 0), (42, 1), (42, 2), (7, 0), (7, 5)] {
                let itineraries = sample_itineraries(net, &routes, seed, rep);
                for e in 0..net.edge_count() {
                    let (up, down) = edge_passes(net, &sim, e, &itineraries);
                    sample_edge_passes(net, &sim, &routes, e, seed, rep, &mut day);
                    assert_eq!(canonical(&day.0), canonical(&up), "edge {e} up");
                    assert_eq!(canonical(&day.1), canonical(&down), "edge {e} down");
                    for list in [&day.0, &day.1] {
                        assert!(list
                            .windows(2)
                            .all(|w| w[0].origin_time() <= w[1].origin_time()));
                    }
                    assert_eq!(
                        report_bits(&sim.simulate_edge(e, &day.0, &day.1)),
                        report_bits(&sim.simulate_edge(e, &up, &down)),
                        "edge {e}, seed {seed}, rep {rep}"
                    );
                }
                let crossed: usize = (routes.iter().enumerate())
                    .map(|(r, route)| {
                        route_departures(net, route, r, seed, rep).len() * (route.legs.len() - 1)
                    })
                    .sum();
                assert_eq!(crossed, TrainItinerary::crossings(&itineraries));
            }
        }
    }

    #[test]
    fn route_rates_sum_back_to_edge_demands() {
        for name in ["line3", "wye3", "star4", "cycle4"] {
            let net = CorridorNetwork::by_name(name).unwrap();
            let routes = decompose_routes(&net);
            for e in 0..net.edge_count() {
                let routed: f64 = routes
                    .iter()
                    .filter(|r| r.traverses(e))
                    .map(|r| r.rate_tph())
                    .sum();
                assert!(
                    (routed - net.edge(e).demand_tph()).abs() < 1e-9,
                    "{name} edge {e}: routed {routed}, demand {}",
                    net.edge(e).demand_tph()
                );
            }
        }
    }

    #[test]
    fn wye_routes_cross_the_hub() {
        // demands 4/16/12: the heaviest flow pairs e1 with e2 through
        // the hub (12 tph), the rest of e1 pairs with e0 (4 tph)
        let net = CorridorNetwork::by_name("wye3").unwrap();
        let routes = decompose_routes(&net);
        assert!(
            routes.iter().any(|r| r.legs().len() >= 2),
            "the wye must produce at least one junction-crossing route"
        );
        let hub_crossings: usize = routes
            .iter()
            .map(|r| r.legs().len().saturating_sub(1))
            .sum();
        assert!(hub_crossings >= 2, "got {hub_crossings} crossings");
    }

    #[test]
    fn itinerary_sampling_is_deterministic_per_seed_and_rep() {
        let net = CorridorNetwork::by_name("wye3").unwrap();
        let routes = decompose_routes(&net);
        let sim = build_day_simulator(&net, &[None, None, None]);
        let day = |e: usize, seed: u64, rep: u64| {
            let mut passes = EdgePasses::default();
            sample_edge_passes(&net, &sim, &routes, e, seed, rep, &mut passes);
            passes
        };
        for e in 0..net.edge_count() {
            let a = day(e, 42, 0);
            assert_eq!(a, day(e, 42, 0));
            assert_ne!(a, day(e, 42, 1), "replications must draw distinct days");
            assert_ne!(a, day(e, 7, 0), "seeds must draw distinct days");
        }
    }

    #[test]
    fn engine_rejects_zero_workers_and_zero_reps() {
        let net = CorridorNetwork::line(&[8.0]);
        for engine in [
            NetworkDayEngine::new().workers(0),
            NetworkDayEngine::new().reps(0),
        ] {
            let err = engine.run(&net, &quick_space()).unwrap_err();
            assert!(matches!(
                err,
                NetworkError::Scenario(ScenarioError::ZeroWorkers)
            ));
        }
    }
}
