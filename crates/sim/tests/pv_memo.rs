//! The process-wide PV sizing memo behind `SweepEngine`'s PV column: it
//! is keyed on the exact climate and load, so a memoized answer is always
//! the answer a fresh sizing would give.

use corridor_sim::{PvOutcome, ScenarioGrid, SweepEngine};
use corridor_solar::{climate, Location};

/// `base`'s climate normals under another name.
fn renamed(name: &'static str, base: &Location) -> Location {
    Location::new(
        name,
        base.latitude_deg(),
        *base.monthly_ghi_kwh_m2_day(),
        *base.monthly_temp_c(),
    )
    .with_overcast_persistence(base.overcast_persistence())
}

/// Every field of a PV outcome, by bits.
fn bits(outcome: PvOutcome) -> Option<[u64; 3]> {
    match outcome {
        PvOutcome::Sized {
            pv_wp,
            battery_wh,
            days_full_pct,
        } => Some([
            pv_wp.to_bits(),
            battery_wh.to_bits(),
            days_full_pct.to_bits(),
        ]),
        PvOutcome::Skipped | PvOutcome::Unsolvable => None,
    }
}

fn sized_pv(grid: &ScenarioGrid) -> Vec<PvOutcome> {
    SweepEngine::new()
        .workers(1)
        .run(grid)
        .expect("grid runs")
        .results()
        .iter()
        .map(|r| r.pv())
        .collect()
}

/// Two sites named alike but with different normals (a blended or
/// edited climate keeps its name) must each get their own sizing: the
/// Madrid-like twin sizes first, and the Berlin-like twin must not be
/// served its answer.
#[test]
fn same_name_different_normals_never_share_a_sizing() {
    let twins = ScenarioGrid::new().locations(vec![
        renamed("twin", &climate::madrid()),
        renamed("twin", &climate::berlin()),
    ]);
    let originals = ScenarioGrid::new().locations(vec![climate::madrid(), climate::berlin()]);
    let twin_pv = sized_pv(&twins);
    let original_pv = sized_pv(&originals);
    assert_eq!(twin_pv.len(), 2);
    assert_ne!(bits(twin_pv[0]), bits(twin_pv[1]), "the twins differ");
    for (twin, original) in twin_pv.iter().zip(&original_pv) {
        assert_eq!(bits(*twin), bits(*original));
    }
    assert!(matches!(
        twin_pv[1],
        PvOutcome::Sized { pv_wp, battery_wh, .. } if pv_wp == 600.0 && battery_wh == 1440.0
    ));
}

/// The repeater load does not depend on the conventional reference ISD,
/// so cells that differ only in it size identically.
#[test]
fn conventional_isd_does_not_change_the_sizing() {
    let isds = [400.0, 525.0, 650.0];
    let grid = ScenarioGrid::new()
        .trains_per_hour(vec![3.0, 9.0])
        .lp_spacings_m(vec![150.0, 300.0])
        .conventional_isds_m(isds.to_vec())
        .locations(vec![climate::lyon(), climate::vienna()]);
    let report = SweepEngine::new().workers(2).run(&grid).expect("grid runs");
    let results = report.results();
    assert_eq!(results.len(), 2 * 2 * isds.len() * 2);
    for a in results {
        for b in results {
            let (ca, cb) = (a.cell(), b.cell());
            let same_but_isd = ca.trains_per_hour() == cb.trains_per_hour()
                && ca.train_speed_kmh() == cb.train_speed_kmh()
                && ca.train_length_m() == cb.train_length_m()
                && ca.lp_spacing_m() == cb.lp_spacing_m()
                && ca.profile_name() == cb.profile_name()
                && ca.location() == cb.location();
            if same_but_isd {
                assert_eq!(
                    bits(a.pv()),
                    bits(b.pv()),
                    "cells {} and {}",
                    ca.index(),
                    cb.index()
                );
            }
        }
    }
}

/// A second run in the same process is served from the memo; it must
/// render the same bytes as the first, at any worker count.
#[test]
fn warm_rerun_renders_the_same_bytes() {
    let grid = ScenarioGrid::new()
        .trains_per_hour(vec![2.5, 7.0, 12.0])
        .train_speeds_kmh(vec![140.0, 230.0])
        .locations(climate::paper_regions().to_vec());
    let cold = SweepEngine::new().workers(1).run(&grid).expect("cold run");
    for workers in [1, 2] {
        let warm = SweepEngine::new()
            .workers(workers)
            .run(&grid)
            .expect("warm run");
        assert_eq!(warm.to_csv(), cold.to_csv(), "CSV, {workers} worker(s)");
        assert_eq!(warm.to_json(), cold.to_json(), "JSON, {workers} worker(s)");
    }
}
