//! Sweep execution over pluggable energy backends.

use core::ops::Range;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use corridor_core::energy::SegmentEnergy;
use corridor_core::sink::{RowEmitter, RowFormat, RowSink};
use corridor_core::{AnalyticEvaluator, EnergyStrategy, ScenarioError, SegmentEvaluator};
use corridor_events::{EventDrivenEvaluator, WakePolicy};
use corridor_solar::{sizing, DailyLoadProfile, Location};
use corridor_traffic::TrackSection;
use corridor_units::Watts;

use crate::cache::{KeyBuilder, ResultCache};
use crate::report::{render_sweep_row, CSV_HEADER};
use crate::stream::{self, ChunkRows, RowPair, StreamError, StreamSummary};
use crate::{batch, CellResult, PvOutcome, ScenarioCell, ScenarioGrid, SweepReport};

/// Cells per streaming work item — a whole number of SoA blocks, coarse
/// enough to amortize scheduling, small enough to bound buffered rows.
const STREAM_CHUNK: usize = 8 * batch::BLOCK;

/// Which energy backend evaluates the cells.
///
/// Both backends agree to < 0.1 % on deterministic timetables (enforced
/// by the differential suite); the event-driven one additionally models
/// wake latency and guard intervals through its [`WakePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Evaluator {
    /// Closed-form duty-cycle math (the published model; fastest).
    #[default]
    Analytic,
    /// Discrete-event simulation of every node under the given wake
    /// policy.
    EventDriven(WakePolicy),
}

impl Evaluator {
    /// The event-driven backend with instant wake transitions — the
    /// configuration the differential harness compares against the
    /// analytic backend.
    pub fn event_driven() -> Self {
        Evaluator::EventDriven(WakePolicy::instant())
    }

    /// A short stable label for report columns.
    pub fn name(&self) -> &'static str {
        match self {
            Evaluator::Analytic => AnalyticEvaluator.name(),
            Evaluator::EventDriven(policy) => EventDrivenEvaluator::with_policy(*policy).name(),
        }
    }

    /// Evaluates one cell's baseline and the three strategy splits.
    ///
    /// Returned in `[baseline, continuous, sleep, solar]` order. The
    /// event-driven backend simulates each geometry once (the state
    /// trace is strategy-independent), so a cell costs two simulated
    /// days — deployment and conventional baseline — not four.
    fn splits(&self, cell: &ScenarioCell) -> [SegmentEnergy; 4] {
        let params = cell.params();
        let baseline_isd = params.conventional_isd();
        match self {
            Evaluator::Analytic => {
                let at = |n, isd, strategy| {
                    AnalyticEvaluator.average_power_per_km(params, n, isd, strategy)
                };
                [
                    at(0, baseline_isd, EnergyStrategy::SleepModeRepeaters),
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
            Evaluator::EventDriven(policy) => {
                let backend = EventDrivenEvaluator::with_policy(*policy);
                let passes = params.timetable().passes();
                let baseline_report = backend.simulate_segment(params, 0, baseline_isd, &passes);
                let report = backend.simulate_segment(params, cell.nodes(), cell.isd(), &passes);
                let at = |strategy| {
                    EventDrivenEvaluator::power_from_report(
                        params,
                        cell.nodes(),
                        cell.isd(),
                        strategy,
                        &report,
                    )
                };
                [
                    EventDrivenEvaluator::power_from_report(
                        params,
                        0,
                        baseline_isd,
                        EnergyStrategy::SleepModeRepeaters,
                        &baseline_report,
                    ),
                    at(EnergyStrategy::ContinuousRepeaters),
                    at(EnergyStrategy::SleepModeRepeaters),
                    at(EnergyStrategy::SolarPoweredRepeaters),
                ]
            }
        }
    }
}

/// Executes a [`ScenarioGrid`], cell by cell, on one or more worker
/// threads.
///
/// Each cell is evaluated independently (energy split for the three
/// strategies through the selected [`Evaluator`], savings versus the
/// cell's conventional baseline, and — unless disabled — the off-grid PV
/// sizing for the cell's climate), so every worker count produces the
/// same results, in the same deterministic grid order.
///
/// # Examples
///
/// ```
/// use corridor_core::EnergyStrategy;
/// use corridor_sim::{Evaluator, ScenarioGrid, SweepEngine};
///
/// let engine = SweepEngine::new().workers(2).pv_sizing(false);
/// let report = engine.run(&ScenarioGrid::new()).unwrap();
/// // the paper's 74 % sleep-mode saving, via the sweep path
/// let saving = report.results()[0].savings(EnergyStrategy::SleepModeRepeaters);
/// assert!((saving - 0.74).abs() < 0.01);
///
/// // the same grid through the event-driven backend
/// let simulated = engine.evaluator(Evaluator::event_driven()).run(&ScenarioGrid::new()).unwrap();
/// let sim_saving = simulated.results()[0].savings(EnergyStrategy::SleepModeRepeaters);
/// assert!((sim_saving - saving).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepEngine {
    workers: Option<usize>,
    pv_sizing: bool,
    evaluator: Evaluator,
}

impl SweepEngine {
    /// An engine with automatic worker count, PV sizing enabled and the
    /// analytic backend.
    pub fn new() -> Self {
        SweepEngine {
            workers: None,
            pv_sizing: true,
            evaluator: Evaluator::Analytic,
        }
    }

    /// Sets an explicit worker count.
    ///
    /// An explicit `0` is rejected by [`SweepEngine::run`] with
    /// [`ScenarioError::ZeroWorkers`] — it used to be silently
    /// reinterpreted as "automatic", which hid configuration bugs. Omit
    /// the call (or rebuild the engine) for automatic machine
    /// parallelism.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Enables or disables the per-cell PV sizing (the expensive step:
    /// three seeded weather years per candidate configuration).
    #[must_use]
    pub fn pv_sizing(mut self, enabled: bool) -> Self {
        self.pv_sizing = enabled;
        self
    }

    /// Selects the energy backend evaluating every cell.
    #[must_use]
    pub fn evaluator(mut self, evaluator: Evaluator) -> Self {
        self.evaluator = evaluator;
        self
    }

    /// Evaluates every cell of the grid on the configured workers, one
    /// struct-of-arrays block of cells per work item, and collects the
    /// results in grid order.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::ZeroWorkers`] if an explicit worker
    /// count of zero was configured, or the [`ScenarioError`] of the
    /// first cell (in grid order) whose parameters fail validation.
    pub fn run(&self, grid: &ScenarioGrid) -> Result<SweepReport, ScenarioError> {
        let workers = stream::resolve_workers(self.workers)?;
        let blocks = stream::collect(
            workers,
            stream::chunked_ranges(0..grid.len(), batch::BLOCK),
            |range| {
                let cells = range
                    .map(|index| grid.cell_at(index))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(self.evaluate_block(&cells))
            },
        )?;
        Ok(SweepReport::new(blocks.into_iter().flatten().collect()))
    }

    /// Streams the whole grid into `sink` in grid order without ever
    /// materializing the report: memory stays flat however many cells
    /// the grid spans, and the emitted bytes are identical to
    /// [`SweepEngine::run`] + [`SweepReport::to_csv`] /
    /// [`SweepReport::to_json`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepEngine::run`], plus
    /// [`StreamError::Sink`] if the sink refuses a row.
    pub fn stream(
        &self,
        grid: &ScenarioGrid,
        format: RowFormat,
        sink: &mut dyn RowSink,
    ) -> Result<StreamSummary, StreamError> {
        self.stream_with(grid, format, sink, None)
    }

    /// [`SweepEngine::stream`] with an optional [`ResultCache`]: cells
    /// whose scenario hash already has a stored row are emitted without
    /// re-evaluation, and freshly computed rows are persisted.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepEngine::stream`].
    pub fn stream_with(
        &self,
        grid: &ScenarioGrid,
        format: RowFormat,
        sink: &mut dyn RowSink,
        cache: Option<&ResultCache>,
    ) -> Result<StreamSummary, StreamError> {
        let mut rows = RowEmitter::begin(sink, format, CSV_HEADER).map_err(StreamError::Sink)?;
        let summary = self.stream_rows(grid, 0..grid.len(), format, cache, |row| {
            rows.row(row).map_err(StreamError::Sink)
        })?;
        rows.finish().map_err(StreamError::Sink)?;
        Ok(summary)
    }

    /// Streams the raw rows of a cell range to `emit`, without header or
    /// framing — the building block the `serve` coordinator shards
    /// across worker processes. Rows arrive in grid order.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the grid's length (a caller bug,
    /// like any out-of-range index).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepEngine::stream`]; an `Err` from `emit`
    /// cancels the remaining evaluation and is returned.
    pub fn stream_rows(
        &self,
        grid: &ScenarioGrid,
        range: Range<usize>,
        format: RowFormat,
        cache: Option<&ResultCache>,
        mut emit: impl FnMut(&str) -> Result<(), StreamError>,
    ) -> Result<StreamSummary, StreamError> {
        let workers = stream::resolve_workers(self.workers)?;
        let chunks = stream::chunked_ranges(range, STREAM_CHUNK);
        stream::drive(
            workers,
            chunks,
            format,
            |chunk| self.stream_chunk(grid, chunk, cache),
            &mut emit,
        )
    }

    /// Evaluates one chunk of cells for the streaming path: probe the
    /// cache per cell, evaluate the misses in SoA blocks (bit-identical
    /// to the in-memory path's blocking), render and store their rows.
    fn stream_chunk(
        &self,
        grid: &ScenarioGrid,
        range: Range<usize>,
        cache: Option<&ResultCache>,
    ) -> Result<ChunkRows, ScenarioError> {
        let mut rows: Vec<Option<RowPair>> = Vec::with_capacity(range.len());
        let mut pending_cells: Vec<ScenarioCell> = Vec::new();
        let mut pending_slots: Vec<(usize, String)> = Vec::new();
        let mut cache_hits = 0u64;
        for index in range {
            let cell = grid.cell_at(index)?;
            let key = match cache {
                Some(store) => {
                    let key = self.cache_key(&cell);
                    if let Some(pair) = store.load(&key) {
                        rows.push(Some(pair));
                        cache_hits += 1;
                        continue;
                    }
                    key
                }
                None => String::new(),
            };
            pending_slots.push((rows.len(), key));
            pending_cells.push(cell);
            rows.push(None);
        }
        let cache_misses = if cache.is_some() {
            pending_cells.len() as u64
        } else {
            0
        };
        for (cells, slots) in pending_cells
            .chunks(batch::BLOCK)
            .zip(pending_slots.chunks(batch::BLOCK))
        {
            for ((slot, key), result) in slots.iter().zip(self.evaluate_block(cells)) {
                let pair = RowPair {
                    csv: render_sweep_row(&result, RowFormat::Csv),
                    json: render_sweep_row(&result, RowFormat::Json),
                };
                if let Some(store) = cache {
                    store.store(key, &pair);
                }
                rows[*slot] = Some(pair);
            }
        }
        Ok(ChunkRows {
            rows: rows
                .into_iter()
                // corridor-lint: allow(no-panic, reason = "the loop above writes every slot exactly once before this collect")
                .map(|r| r.expect("every chunk slot is filled"))
                .collect(),
            cache_hits,
            cache_misses,
        })
    }

    /// The scenario hash of one cell under this engine's configuration.
    fn cache_key(&self, cell: &ScenarioCell) -> String {
        let mut key = KeyBuilder::new("sweep");
        key.text("evaluator", self.evaluator.name());
        if let Evaluator::EventDriven(policy) = self.evaluator {
            key.f64("lead", policy.lead().value())
                .f64("wake", policy.wake_delay().value())
                .f64("guard", policy.guard().value());
        }
        key.int("pv", u64::from(self.pv_sizing));
        key.cell(cell);
        key.finish()
    }

    /// Evaluates one cell.
    pub fn evaluate(&self, cell: &ScenarioCell) -> CellResult {
        let [baseline, continuous, sleep, solar] = self.evaluator.splits(cell);
        self.finish(cell, [baseline, continuous, sleep, solar])
    }

    /// Evaluates one block of cells.
    ///
    /// The analytic backend goes through the struct-of-arrays
    /// [`batch::CellBlock`]: gather every activity column for the block
    /// (each lookup memoized process-wide), then emit the splits per
    /// cell from the columns. Batched and scalar evaluation share the
    /// same split function, so their results are bit-identical.
    fn evaluate_block(&self, cells: &[ScenarioCell]) -> Vec<CellResult> {
        match self.evaluator {
            Evaluator::Analytic => {
                let block = batch::CellBlock::gather(cells);
                cells
                    .iter()
                    .enumerate()
                    .map(|(i, cell)| self.finish(cell, block.splits(i, cell)))
                    .collect()
            }
            Evaluator::EventDriven(_) => cells.iter().map(|cell| self.evaluate(cell)).collect(),
        }
    }

    /// Attaches PV sizing and wraps the splits into a [`CellResult`].
    fn finish(&self, cell: &ScenarioCell, splits: [SegmentEnergy; 4]) -> CellResult {
        let [baseline, continuous, sleep, solar] = splits;
        let pv = if self.pv_sizing {
            self.size_pv(cell)
        } else {
            PvOutcome::Skipped
        };
        CellResult::new(
            cell.clone(),
            self.evaluator.name(),
            baseline,
            continuous,
            sleep,
            solar,
            pv,
        )
    }

    /// Sizes the off-grid PV system of one service repeater in this cell
    /// at the cell's deployment ISD.
    fn size_pv(&self, cell: &ScenarioCell) -> PvOutcome {
        size_repeater_pv(cell.params(), cell.location(), cell.isd())
    }
}

/// Sizes the off-grid PV system of one service repeater at `isd`: the
/// node sleeps through the night pause and serves train bursts during
/// the service window (the paper's Table IV methodology, generalized to
/// the given timetable, equipment and deployment geometry). Shared by
/// the sweep engine (at the cell's fixed ISD) and the deployment
/// optimizer (at each candidate ISD).
pub(crate) fn size_repeater_pv(
    params: &corridor_core::ScenarioParams,
    location: &Location,
    isd: corridor_units::Meters,
) -> PvOutcome {
    let section = TrackSection::around(isd / 2.0, params.lp_spacing());
    let active_h = corridor_core::energy::active_hours(params, section).value();
    size_repeater_pv_for_load(params, location, active_h)
}

/// [`size_repeater_pv`] with explicit daily full-load hours — the
/// deployment optimizer feeds the *policy-padded* powered time from the
/// event-driven trace here, so a padded wake policy's PV system is
/// sized for the load it actually reports, not the instant-wake
/// activity floor.
///
/// The outcome is a pure function of the climate and the three load
/// parameters, so it is memoized process-wide on their exact bits (see
/// [`SizingKey`]). Grids repeat those inputs often: the repeater load
/// never depends on the conventional ISD, so every cell that differs
/// only in it sizes an already-sized load.
pub(crate) fn size_repeater_pv_for_load(
    params: &corridor_core::ScenarioParams,
    location: &Location,
    active_h: f64,
) -> PvOutcome {
    let lp = params.lp_node();
    let night_h = (24.0 - params.timetable().service_window().value())
        .round()
        .clamp(0.0, 23.0);
    let day_window_h = 24.0 - night_h;
    let day_avg_w = (lp.full_load_power().value() * active_h
        + lp.p_sleep().value() * (day_window_h - active_h).max(0.0))
        / day_window_h;
    let night_hours = night_h as usize;
    let key = SizingKey {
        climate: climate_id(location),
        p_sleep: lp.p_sleep().value().to_bits(),
        day_avg_w: day_avg_w.to_bits(),
        night_hours,
    };
    let slot = {
        let mut memo = sizing_memo().lock().unwrap_or_else(PoisonError::into_inner);
        memo.entry(key).or_default().clone()
    };
    *slot.get_or_init(|| {
        let load =
            DailyLoadProfile::repeater_profile(lp.p_sleep(), Watts::new(day_avg_w), night_hours);
        match sizing::size_for_zero_downtime(
            location.clone(),
            load,
            &sizing::SizingOptions::paper_default(),
        ) {
            Some(fit) => PvOutcome::Sized {
                pv_wp: fit.pv.peak().value(),
                battery_wh: fit.battery_capacity.value(),
                days_full_pct: fit.mean_full_battery_fraction() * 100.0,
            },
            None => PvOutcome::Unsolvable,
        }
    })
}

/// The exact inputs of one repeater sizing: the interned climate (see
/// [`climate_id`]) and the bits of the load profile's parameters. Floats
/// are compared by bits, so distinct loads never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SizingKey {
    climate: usize,
    p_sleep: u64,
    day_avg_w: u64,
    night_hours: usize,
}

/// One slot per key, so a sizing in progress never holds the map lock:
/// other keys proceed while the first caller of this key fills it, and
/// racing callers of the same key wait for that one computation.
type SizingSlot = Arc<OnceLock<PvOutcome>>;

fn sizing_memo() -> &'static Mutex<BTreeMap<SizingKey, SizingSlot>> {
    static MEMO: OnceLock<Mutex<BTreeMap<SizingKey, SizingSlot>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// A climate's identity: its name plus the bits of its latitude, overcast
/// persistence and 24 monthly normals — everything the weather years and
/// the plane-of-array geometry read. Two sites sharing a name but not
/// their normals get distinct ids.
type ClimateKey = (&'static str, [u64; 26]);

/// Interns `location` to a small id, assigned in first-seen order.
fn climate_id(location: &Location) -> usize {
    static IDS: OnceLock<Mutex<BTreeMap<ClimateKey, usize>>> = OnceLock::new();
    let mut bits = [0u64; 26];
    let normals = location
        .monthly_ghi_kwh_m2_day()
        .iter()
        .chain(location.monthly_temp_c());
    let values = [location.latitude_deg(), location.overcast_persistence()]
        .into_iter()
        .chain(normals.copied());
    for (slot, value) in bits.iter_mut().zip(values) {
        *slot = value.to_bits();
    }
    let mut ids = IDS
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let next = ids.len();
    *ids.entry((location.name(), bits)).or_insert(next)
}

impl Default for SweepEngine {
    /// Returns [`SweepEngine::new`].
    fn default() -> Self {
        SweepEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_core::{experiments, ScenarioParams};
    use corridor_solar::climate;

    #[test]
    fn paper_cell_reproduces_headline_savings() {
        let report = SweepEngine::new()
            .workers(1)
            .pv_sizing(false)
            .run(&ScenarioGrid::new())
            .unwrap();
        let h = experiments::headline_numbers(&ScenarioParams::paper_default());
        let r = &report.results()[0];
        assert!((r.savings(EnergyStrategy::SleepModeRepeaters) - h.savings_sleep_10).abs() < 1e-12);
        assert!(
            (r.savings(EnergyStrategy::SolarPoweredRepeaters) - h.savings_solar_10).abs() < 1e-12
        );
        assert_eq!(r.evaluator(), "analytic");
    }

    #[test]
    fn paper_cell_pv_sizing_matches_table4_berlin() {
        // default grid = Berlin climate; Table IV: 600 Wp / 1440 Wh
        let report = SweepEngine::new()
            .workers(1)
            .run(&ScenarioGrid::new())
            .unwrap();
        match report.results()[0].pv() {
            PvOutcome::Sized {
                pv_wp,
                battery_wh,
                days_full_pct,
            } => {
                assert_eq!(pv_wp, 600.0);
                assert_eq!(battery_wh, 1440.0);
                assert!(days_full_pct > 85.0);
            }
            other => panic!("expected sized outcome, got {other:?}"),
        }
    }

    #[test]
    fn heavy_load_profile_is_unsolvable() {
        // a flat 650 W onboard-relay "repeater" cannot be solar-sized
        let grid = ScenarioGrid::new().power_profiles(vec![crate::PowerProfile::custom(
            "flat-650w",
            corridor_power::catalog::high_power_mast(),
            corridor_power::catalog::onboard_relay(),
        )]);
        let report = SweepEngine::new().workers(1).run(&grid).unwrap();
        assert_eq!(report.results()[0].pv(), PvOutcome::Unsolvable);
    }

    #[test]
    fn parallel_matches_serial_on_a_mixed_grid() {
        let grid = ScenarioGrid::new()
            .trains_per_hour(vec![4.0, 8.0])
            .train_speeds_kmh(vec![160.0, 200.0])
            .locations(vec![climate::madrid(), climate::berlin()]);
        let engine = SweepEngine::new().pv_sizing(false);
        let serial = engine.workers(1).run(&grid).unwrap();
        let parallel = engine.workers(4).run(&grid).unwrap();
        assert_eq!(serial.results(), parallel.results());
    }

    #[test]
    fn strategy_ordering_holds_across_the_screening_grid() {
        let report = SweepEngine::new()
            .pv_sizing(false)
            .run(&ScenarioGrid::screening_200())
            .unwrap();
        assert_eq!(report.len(), 200);
        for r in report.results() {
            let c = r.split(EnergyStrategy::ContinuousRepeaters).total();
            let s = r.split(EnergyStrategy::SleepModeRepeaters).total();
            let z = r.split(EnergyStrategy::SolarPoweredRepeaters).total();
            assert!(c > s, "{}", r.cell());
            assert!(s > z, "{}", r.cell());
        }
    }

    #[test]
    fn explicit_zero_workers_is_rejected() {
        let engine = SweepEngine::new().workers(0).pv_sizing(false);
        let err = engine.run(&ScenarioGrid::new()).unwrap_err();
        assert_eq!(err, ScenarioError::ZeroWorkers);
        // automatic parallelism (no explicit count) still works
        assert!(SweepEngine::new()
            .pv_sizing(false)
            .run(&ScenarioGrid::new())
            .is_ok());
    }

    #[test]
    fn event_driven_backend_matches_analytic_on_the_paper_cell() {
        let grid = ScenarioGrid::new();
        let engine = SweepEngine::new().workers(1).pv_sizing(false);
        let analytic = engine.run(&grid).unwrap();
        let simulated = engine
            .evaluator(Evaluator::event_driven())
            .run(&grid)
            .unwrap();
        let a = &analytic.results()[0];
        let s = &simulated.results()[0];
        assert_eq!(s.evaluator(), "event-driven");
        for strategy in EnergyStrategy::ALL {
            let rel = (s.split(strategy).total().value() - a.split(strategy).total().value()).abs()
                / a.split(strategy).total().value();
            assert!(rel < 1e-3, "{strategy}: {rel}");
        }
    }

    #[test]
    fn evaluator_labels() {
        assert_eq!(Evaluator::Analytic.name(), "analytic");
        assert_eq!(Evaluator::event_driven().name(), "event-driven");
        assert_eq!(Evaluator::default(), Evaluator::Analytic);
    }

    #[test]
    fn climate_ids_follow_the_normals_not_the_name() {
        let berlin = climate::berlin();
        assert_eq!(climate_id(&berlin), climate_id(&climate::berlin()));
        assert_ne!(climate_id(&berlin), climate_id(&climate::vienna()));
        let gloomier = berlin.clone().with_overcast_persistence(0.9);
        assert_eq!(gloomier.name(), berlin.name());
        assert_ne!(climate_id(&gloomier), climate_id(&berlin));
        let mut ghi = *berlin.monthly_ghi_kwh_m2_day();
        ghi[11] += 0.01;
        let brighter = Location::new(
            berlin.name(),
            berlin.latitude_deg(),
            ghi,
            *berlin.monthly_temp_c(),
        )
        .with_overcast_persistence(berlin.overcast_persistence());
        assert_ne!(climate_id(&brighter), climate_id(&berlin));
    }
}
