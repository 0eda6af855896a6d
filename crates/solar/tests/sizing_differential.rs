//! Differential check of the screening sizing search against the
//! exhaustive ladder it replaced.
//!
//! The reference below simulates every seed year of every candidate in
//! full and takes the first candidate with zero downtime — the plain
//! reading of the paper's adaptation logic. `size_for_zero_downtime`
//! screens instead (early exit, reordered seeds); it must pick the same
//! rung and report bit-identical statistics.

use std::collections::BTreeSet;

use corridor_solar::sizing::{size_for_zero_downtime, PvSizing, SizingOptions};
use corridor_solar::{climate, Battery, DailyLoadProfile, Location, OffGridSystem, YearStats};
use corridor_units::{WattHours, Watts};

/// The exhaustive ladder: every candidate simulated over every seed, the
/// first fully downtime-free one wins.
fn reference(
    location: &Location,
    load: &DailyLoadProfile,
    options: &SizingOptions,
) -> Option<PvSizing> {
    for pv in &options.pv_candidates {
        for &battery_capacity in &options.battery_candidates {
            let system = OffGridSystem::new(
                location.clone(),
                *pv,
                Battery::with_capacity(battery_capacity),
                load.clone(),
            );
            let stats = system.simulate_years(&options.seeds);
            if stats.iter().all(|s| s.downtime_days() == 0) {
                return Some(PvSizing {
                    pv: *pv,
                    battery_capacity,
                    stats,
                });
            }
        }
    }
    None
}

/// Every field of two year summaries, compared by bits.
fn same_bits(a: &YearStats, b: &YearStats) -> bool {
    a == b
        && a.days() == b.days()
        && a.full_battery_days() == b.full_battery_days()
        && a.downtime_days() == b.downtime_days()
        && a.unmet_energy().value().to_bits() == b.unmet_energy().value().to_bits()
        && a.curtailed_energy().value().to_bits() == b.curtailed_energy().value().to_bits()
        && a.generation().value().to_bits() == b.generation().value().to_bits()
        && a.consumption().value().to_bits() == b.consumption().value().to_bits()
        && a.min_soc_fraction().to_bits() == b.min_soc_fraction().to_bits()
}

/// The rung a sizing landed on, as `(Wp, Wh)` bits, or `None` when no
/// candidate passed.
type Rung = Option<(u64, u64)>;

fn rung(wp: f64, wh: f64) -> Rung {
    Some((wp.to_bits(), wh.to_bits()))
}

/// Sizes `load` both ways, asserts they agree exactly and returns the
/// rung.
fn check(location: &Location, load: &DailyLoadProfile, options: &SizingOptions) -> Rung {
    let screened = size_for_zero_downtime(location.clone(), load.clone(), options);
    let exhaustive = reference(location, load, options);
    let context = format!("{} / {load}", location.name());
    match (&screened, &exhaustive) {
        (None, None) => None,
        (Some(fast), Some(slow)) => {
            assert_eq!(fast.pv, slow.pv, "{context}: PV array");
            assert_eq!(
                fast.battery_capacity.value().to_bits(),
                slow.battery_capacity.value().to_bits(),
                "{context}: battery"
            );
            assert_eq!(fast.stats.len(), slow.stats.len(), "{context}: seed count");
            for (seed, (a, b)) in options.seeds.iter().zip(fast.stats.iter().zip(&slow.stats)) {
                assert!(same_bits(a, b), "{context}: seed {seed}: {a:?} != {b:?}");
            }
            rung(fast.pv.peak().value(), fast.battery_capacity.value())
        }
        _ => panic!("{context}: screened {screened:?} vs exhaustive {exhaustive:?}"),
    }
}

/// Every rung of `options`' ladder, plus "unsolvable".
fn every_rung(options: &SizingOptions) -> BTreeSet<Rung> {
    let mut rungs = BTreeSet::from([None]);
    for pv in &options.pv_candidates {
        for battery in &options.battery_candidates {
            rungs.insert(rung(pv.peak().value(), battery.value()));
        }
    }
    rungs
}

/// Checks a sweep of constant loads (3–9 W around the clock) and
/// repeater-shaped loads (4.72 W through a 5-hour night, a 5–11 W
/// service-day average) in the four paper climates; returns the rungs
/// they landed on.
fn sweep(options: &SizingOptions) -> BTreeSet<Rung> {
    let mut rungs = BTreeSet::new();
    for location in climate::paper_regions() {
        for tenth in (30..=90).step_by(2) {
            let watts = Watts::new(f64::from(tenth) / 10.0);
            rungs.insert(check(
                &location,
                &DailyLoadProfile::constant(watts),
                options,
            ));
            let day = Watts::new(f64::from(tenth + 20) / 10.0);
            let repeater = DailyLoadProfile::repeater_profile(Watts::new(4.72), day, 5);
            rungs.insert(check(&location, &repeater, options));
        }
    }
    rungs
}

/// The load sweep through the paper's ladder matches the exhaustive
/// ladder bit for bit on every load. It lands on every rung except the
/// two 720 Wh rungs above 540 Wp: in these climates a load that sinks
/// 540 Wp / 1440 Wh also sinks 600 and 720 Wp at half the storage, so
/// that ladder never stops there. A ladder with only the 720 Wh battery
/// reaches them, so between the two sweeps every rung, "unsolvable"
/// included, is checked.
#[test]
fn screening_matches_the_exhaustive_ladder_on_every_rung() {
    let paper = SizingOptions::paper_default();
    let mut landed = sweep(&paper);
    let unreached: BTreeSet<Rung> = every_rung(&paper).difference(&landed).copied().collect();
    assert_eq!(
        unreached,
        BTreeSet::from([rung(600.0, 720.0), rung(720.0, 720.0)]),
        "paper ladder coverage"
    );

    let small_battery = SizingOptions {
        battery_candidates: vec![WattHours::new(720.0)],
        ..SizingOptions::paper_default()
    };
    landed.extend(sweep(&small_battery));
    assert_eq!(
        landed,
        every_rung(&paper),
        "the sweeps must cover every rung"
    );
}

/// The paper's Berlin case sits on the 540 Wp borderline: both 540 Wp
/// configurations (and 600 Wp / 720 Wh) fail, 600 Wp / 1440 Wh passes
/// (Table IV). The screening search must reject the same rungs.
#[test]
fn berlin_borderline_matches_the_exhaustive_ladder() {
    let options = SizingOptions::paper_default();
    let sized = check(
        &climate::berlin(),
        &DailyLoadProfile::repeater_paper_default(),
        &options,
    );
    assert_eq!(
        sized,
        rung(600.0, 1440.0),
        "Berlin sizes to 600 Wp / 1440 Wh"
    );
}

/// The other three paper climates under the paper's repeater load.
#[test]
fn paper_load_matches_in_every_region() {
    let options = SizingOptions::paper_default();
    for location in climate::paper_regions() {
        let sized = check(
            &location,
            &DailyLoadProfile::repeater_paper_default(),
            &options,
        );
        assert!(sized.is_some(), "{} is solvable", location.name());
    }
}

/// Seed order is free: reversing or repeating the acceptance seeds
/// changes which seed the search visits first, never the answer, and the
/// stats still come back in the given order.
#[test]
fn seed_order_does_not_change_the_answer() {
    let mut options = SizingOptions::paper_default();
    options.seeds = vec![59, 46, 7, 46];
    for location in [climate::vienna(), climate::berlin()] {
        check(
            &location,
            &DailyLoadProfile::repeater_paper_default(),
            &options,
        );
    }
    options.seeds.clear();
    assert_eq!(
        check(
            &climate::berlin(),
            &DailyLoadProfile::repeater_paper_default(),
            &options
        ),
        rung(540.0, 720.0),
        "with no seed years every candidate passes vacuously"
    );
}
