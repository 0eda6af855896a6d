//! Struct-of-arrays batch evaluation of analytic sweep cells.
//!
//! The sweep engine evaluates cells in blocks of [`BLOCK`]. For each
//! block, a [`CellBlock`] first *gathers* every activity integral the
//! block needs into flat column arrays (one pass per column, each
//! lookup served by the process-wide memo in
//! [`corridor_core::energy::active_hours`]), then *emits* the four
//! energy splits per cell from those columns. Both phases go through
//! exactly the functions the scalar path uses —
//! [`energy::active_hours`] and [`energy::split_from_active_hours`] —
//! so a batched cell is bit-identical to evaluating it alone (pinned by
//! `tests/batch_equivalence.rs`).

use corridor_core::energy::{self, SegmentEnergy};
use corridor_core::EnergyStrategy;
use corridor_traffic::TrackSection;
use corridor_units::{Hours, Meters};

use crate::ScenarioCell;

/// Cells evaluated per batch. Eight keeps every column of a block in a
/// couple of cache lines while leaving enough blocks for the workers to
/// balance.
pub(crate) const BLOCK: usize = 8;

/// The activity columns of one block of cells, stored column-wise.
///
/// Four columns per cell: the deployment's ISD-section and service-
/// section occupancy (driving masts/donors and the mid-segment service
/// node) and the same pair for the cell's conventional baseline.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellBlock {
    hp_active: Vec<Hours>,
    service_active: Vec<Hours>,
    baseline_hp_active: Vec<Hours>,
    baseline_service_active: Vec<Hours>,
}

impl CellBlock {
    /// Gathers the activity columns for `cells`, one column at a time.
    pub(crate) fn gather(cells: &[ScenarioCell]) -> Self {
        let active = |cell: &ScenarioCell, section: TrackSection| {
            energy::active_hours(cell.params(), section)
        };
        let hp_section = |isd: Meters| TrackSection::new(Meters::ZERO, isd);
        let service_section = |cell: &ScenarioCell, isd: Meters| {
            TrackSection::around(isd / 2.0, cell.params().lp_spacing())
        };
        CellBlock {
            hp_active: cells
                .iter()
                .map(|c| active(c, hp_section(c.isd())))
                .collect(),
            service_active: cells
                .iter()
                .map(|c| active(c, service_section(c, c.isd())))
                .collect(),
            baseline_hp_active: cells
                .iter()
                .map(|c| active(c, hp_section(c.params().conventional_isd())))
                .collect(),
            baseline_service_active: cells
                .iter()
                .map(|c| active(c, service_section(c, c.params().conventional_isd())))
                .collect(),
        }
    }

    /// Emits cell `i`'s `[baseline, continuous, sleep, solar]` splits
    /// from the gathered columns.
    pub(crate) fn splits(&self, i: usize, cell: &ScenarioCell) -> [SegmentEnergy; 4] {
        let params = cell.params();
        let deployed = |strategy| {
            energy::split_from_active_hours(
                params,
                cell.nodes(),
                cell.isd(),
                strategy,
                self.hp_active[i],
                self.service_active[i],
            )
        };
        [
            energy::split_from_active_hours(
                params,
                0,
                params.conventional_isd(),
                EnergyStrategy::SleepModeRepeaters,
                self.baseline_hp_active[i],
                self.baseline_service_active[i],
            ),
            deployed(EnergyStrategy::ContinuousRepeaters),
            deployed(EnergyStrategy::SleepModeRepeaters),
            deployed(EnergyStrategy::SolarPoweredRepeaters),
        ]
    }
}
