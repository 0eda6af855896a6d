//! The struct-of-arrays batch evaluator must be *bit-identical* to the
//! scalar path: for every cell of the screening grid, every float of
//! every split produced by the batched sweep equals the float the
//! scalar evaluation produces — `assert_eq!` on raw bits, not an
//! epsilon — including the NaN/zero-baseline hardening conventions.

use corridor_core::energy::{self, SegmentEnergy};
use corridor_core::{EnergyStrategy, ScenarioParams};
use corridor_sim::{Evaluator, ScenarioGrid, SweepEngine};
use corridor_traffic::{ActivityTimeline, TrackSection};
use corridor_units::{Meters, Watts};

fn assert_same_bits(label: &str, batched: &SegmentEnergy, scalar: &SegmentEnergy) {
    for (field, b, s) in [
        ("hp", batched.hp, scalar.hp),
        ("service", batched.service, scalar.service),
        ("donor", batched.donor, scalar.donor),
    ] {
        assert_eq!(
            b.value().to_bits(),
            s.value().to_bits(),
            "{label}.{field}: batched {} != scalar {}",
            b.value(),
            s.value(),
        );
    }
}

/// Every cell of the 200-cell screening grid, batched sweep versus
/// per-cell scalar evaluation: all four splits bit-identical.
#[test]
fn screening_grid_batch_matches_scalar_bit_for_bit() {
    let grid = ScenarioGrid::screening_200();
    let engine = SweepEngine::new().workers(1).pv_sizing(false);
    let batched = engine.run(&grid).unwrap();
    assert_eq!(batched.len(), 200);
    for result in batched.results() {
        let scalar = engine.evaluate(result.cell());
        assert_same_bits("baseline", result.baseline(), scalar.baseline());
        for strategy in EnergyStrategy::ALL {
            assert_same_bits(
                &format!("{strategy}"),
                result.split(strategy),
                scalar.split(strategy),
            );
        }
    }
}

/// The batched splits also equal the raw core-crate computation — the
/// path that existed before the batch layer — bit for bit.
#[test]
fn batch_matches_the_core_energy_functions() {
    let grid = ScenarioGrid::screening_200();
    let report = SweepEngine::new()
        .workers(1)
        .pv_sizing(false)
        .run(&grid)
        .unwrap();
    for result in report.results() {
        let cell = result.cell();
        let params = cell.params();
        let baseline = energy::average_power_per_km(
            params,
            0,
            params.conventional_isd(),
            EnergyStrategy::SleepModeRepeaters,
        );
        assert_same_bits("baseline", result.baseline(), &baseline);
        for strategy in EnergyStrategy::ALL {
            let scalar = energy::average_power_per_km(params, cell.nodes(), cell.isd(), strategy);
            assert_same_bits(&format!("{strategy}"), result.split(strategy), &scalar);
        }
    }
}

/// The parallel batched sweep equals the serial batched sweep exactly
/// (same blocks, same order, same bits).
#[test]
fn parallel_batched_sweep_equals_serial() {
    let grid = ScenarioGrid::screening_200();
    let engine = SweepEngine::new().pv_sizing(false);
    let serial = engine.workers(1).run(&grid).unwrap();
    for workers in [1usize, 2, 8] {
        let parallel = engine.workers(workers).run(&grid).unwrap();
        assert_eq!(serial.results(), parallel.results(), "workers = {workers}");
    }
}

/// The memoized activity lookup is bit-identical to a fresh timeline
/// scan, on first use and on every repeat.
#[test]
fn memoized_active_hours_match_a_fresh_timeline() {
    let params = ScenarioParams::paper_default();
    for isd_m in [500.0, 1250.0, 2650.0, 3062.5] {
        for section in [
            TrackSection::new(Meters::ZERO, Meters::new(isd_m)),
            TrackSection::around(Meters::new(isd_m / 2.0), params.lp_spacing()),
        ] {
            let fresh = ActivityTimeline::for_section(&section, &params.timetable().passes())
                .total_active_hours();
            for round in 0..2 {
                let memoized = energy::active_hours(&params, section);
                assert_eq!(
                    memoized.value().to_bits(),
                    fresh.value().to_bits(),
                    "isd {isd_m}, round {round}"
                );
            }
        }
    }
}

/// The event-driven backend bypasses the batch layer: blocked and
/// per-cell evaluation agree there too.
#[test]
fn event_driven_blocks_match_per_cell_evaluation() {
    let grid = ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0])
        .train_speeds_kmh(vec![160.0, 200.0]);
    let engine = SweepEngine::new()
        .workers(1)
        .pv_sizing(false)
        .evaluator(Evaluator::event_driven());
    let report = engine.run(&grid).unwrap();
    for result in report.results() {
        let scalar = engine.evaluate(result.cell());
        assert_eq!(result, &scalar);
    }
}

/// Hardening: no float anywhere in the batched screening sweep is NaN
/// or infinite, and the zero-baseline savings convention (0.0, never
/// NaN/∞) survives the batch path.
#[test]
fn batched_sweep_stays_finite_and_hardened() {
    let grid = ScenarioGrid::screening_200();
    let report = SweepEngine::new()
        .workers(1)
        .pv_sizing(false)
        .run(&grid)
        .unwrap();
    for result in report.results() {
        assert!(result.baseline().total().value().is_finite());
        for strategy in EnergyStrategy::ALL {
            let split = result.split(strategy);
            for w in [split.hp, split.service, split.donor] {
                assert!(w.value().is_finite(), "{}: {w:?}", result.cell());
            }
            assert!(result.savings(strategy).is_finite());
        }
        // the zero-baseline convention is preserved by batched splits
        let zero = SegmentEnergy {
            hp: Watts::ZERO,
            service: Watts::ZERO,
            donor: Watts::ZERO,
        };
        assert_eq!(
            result
                .split(EnergyStrategy::SleepModeRepeaters)
                .savings_vs(&zero),
            0.0
        );
    }
}
