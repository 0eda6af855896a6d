//! Year-long off-grid system simulation.

use core::fmt;

use corridor_units::WattHours;

use crate::{
    Battery, DailyLoadProfile, Location, PvArray, SolarGeometry, Transposition, WeatherGenerator,
};

/// Summary statistics of one simulated year, mirroring the PVGIS off-grid
/// report used in the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct YearStats {
    days: u32,
    full_battery_days: u32,
    downtime_days: u32,
    unmet_energy: WattHours,
    curtailed_energy: WattHours,
    generation: WattHours,
    consumption: WattHours,
    min_soc_fraction: f64,
}

impl YearStats {
    /// Number of simulated days.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// Days on which the battery reached full charge.
    pub fn full_battery_days(&self) -> u32 {
        self.full_battery_days
    }

    /// Fraction of days with a full battery (the paper's Table IV metric).
    pub fn full_battery_day_fraction(&self) -> f64 {
        f64::from(self.full_battery_days) / f64::from(self.days)
    }

    /// Days with unserved load (the paper requires zero).
    pub fn downtime_days(&self) -> u32 {
        self.downtime_days
    }

    /// Total unserved load energy.
    pub fn unmet_energy(&self) -> WattHours {
        self.unmet_energy
    }

    /// Generation that could not be stored or used.
    pub fn curtailed_energy(&self) -> WattHours {
        self.curtailed_energy
    }

    /// Total PV generation.
    pub fn generation(&self) -> WattHours {
        self.generation
    }

    /// Total load.
    pub fn consumption(&self) -> WattHours {
        self.consumption
    }

    /// Lowest state of charge reached, as a fraction of nominal capacity.
    pub fn min_soc_fraction(&self) -> f64 {
        self.min_soc_fraction
    }
}

impl fmt::Display for YearStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} % days full, {} downtime day(s), {:.0} generated / {:.0} consumed",
            self.full_battery_day_fraction() * 100.0,
            self.downtime_days,
            self.generation.value(),
            self.consumption.value()
        )
    }
}

/// A complete off-grid repeater power system at a location: PV array,
/// battery and load, simulated hourly over a full year with synthetic
/// weather.
///
/// # Examples
///
/// ```
/// use corridor_solar::{climate, Battery, DailyLoadProfile, OffGridSystem, PvArray};
/// use corridor_units::WattHours;
///
/// let system = OffGridSystem::new(
///     climate::madrid(),
///     PvArray::standard_modules(3),
///     Battery::with_capacity(WattHours::new(720.0)),
///     DailyLoadProfile::repeater_paper_default(),
/// );
/// let stats = system.simulate_year(1);
/// assert_eq!(stats.days(), 365);
/// ```
#[derive(Debug, Clone)]
pub struct OffGridSystem {
    location: Location,
    pv: PvArray,
    battery: Battery,
    load: DailyLoadProfile,
    transposition: Transposition,
    variability: f64,
    persistence: f64,
}

impl OffGridSystem {
    /// Clearness floor/ceiling when converting daily GHI to an index.
    pub(crate) const KT_RANGE: (f64, f64) = (0.03, 0.85);

    /// A system with the paper's mounting (vertical, south-facing) and the
    /// default weather variability.
    pub fn new(location: Location, pv: PvArray, battery: Battery, load: DailyLoadProfile) -> Self {
        let geometry = SolarGeometry::at_latitude(location.latitude_deg());
        let persistence = location.overcast_persistence();
        OffGridSystem {
            location,
            pv,
            battery,
            load,
            transposition: Transposition::vertical_south(geometry),
            variability: WeatherGenerator::DEFAULT_VARIABILITY,
            persistence,
        }
    }

    /// Overrides the module mounting (tilt/azimuth).
    #[must_use]
    pub fn with_mounting(mut self, tilt_deg: f64, azimuth_deg: f64) -> Self {
        let geometry = SolarGeometry::at_latitude(self.location.latitude_deg());
        self.transposition = Transposition::new(geometry, tilt_deg, azimuth_deg);
        self
    }

    /// Overrides the weather variability (0 = deterministic normals).
    #[must_use]
    pub fn with_weather_variability(mut self, variability: f64, persistence: f64) -> Self {
        self.variability = variability;
        self.persistence = persistence;
        self
    }

    /// The simulated site.
    pub fn location(&self) -> &Location {
        &self.location
    }

    /// The PV array.
    pub fn pv(&self) -> &PvArray {
        &self.pv
    }

    /// The battery (template state; simulations start from full).
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// The load profile.
    pub fn load(&self) -> &DailyLoadProfile {
        &self.load
    }

    /// Simulates one year (365 days, hourly) with weather seed `seed`.
    ///
    /// The battery starts full on January 1st; the seed fully determines
    /// the weather, so results are reproducible.
    ///
    /// The candidate-independent environment (seeded clearness draws and
    /// plane-of-array transposition) is computed once per
    /// `(site, mounting, weather, seed)` and shared process-wide, so a
    /// sizing search re-simulating the same weather year through many
    /// PV/battery candidates pays only for the battery stepping.
    pub fn simulate_year(&self, seed: u64) -> YearStats {
        self.step_year(seed, false).0
    }

    /// Screens one year for downtime: `None` as soon as an hour leaves
    /// load unserved, otherwise the year's full statistics.
    ///
    /// A downtime-free year runs exactly the arithmetic of
    /// [`OffGridSystem::simulate_year`], in the same order, so
    /// `screen_year(seed)` is `Some(simulate_year(seed))` bit for bit when
    /// that year has zero downtime days, and `None` otherwise — without
    /// stepping the rest of a year that has already failed.
    ///
    /// # Examples
    ///
    /// ```
    /// use corridor_solar::{climate, Battery, DailyLoadProfile, OffGridSystem, PvArray};
    /// use corridor_units::{WattHours, Watts};
    ///
    /// let sized = OffGridSystem::new(
    ///     climate::madrid(),
    ///     PvArray::standard_modules(3),
    ///     Battery::with_capacity(WattHours::new(720.0)),
    ///     DailyLoadProfile::repeater_paper_default(),
    /// );
    /// assert_eq!(sized.screen_year(1), Some(sized.simulate_year(1)));
    ///
    /// let overloaded = OffGridSystem::new(
    ///     climate::berlin(),
    ///     PvArray::standard_modules(3),
    ///     Battery::with_capacity(WattHours::new(720.0)),
    ///     DailyLoadProfile::constant(Watts::new(100.0)),
    /// );
    /// assert_eq!(overloaded.screen_year(1), None);
    /// ```
    pub fn screen_year(&self, seed: u64) -> Option<YearStats> {
        let (stats, complete) = self.step_year(seed, true);
        complete.then_some(stats)
    }

    /// The hourly battery stepping behind [`OffGridSystem::simulate_year`]
    /// and [`OffGridSystem::screen_year`]. With `stop_at_unmet`, stepping
    /// ends after the first hour with unserved load and the returned flag
    /// is `false`; the stats then cover only the hours stepped. The flag
    /// is `true` whenever the whole year was stepped.
    ///
    /// The minimum state of charge is tracked in watt-hours and divided
    /// by the capacity once: correctly rounded division by a positive
    /// constant is monotone, so this equals the minimum of the hourly
    /// fractions bit for bit.
    fn step_year(&self, seed: u64, stop_at_unmet: bool) -> (YearStats, bool) {
        let env = crate::environment::cached_year(
            &self.location,
            &self.transposition,
            self.variability,
            self.persistence,
            seed,
        );
        let mut battery = self.battery;
        battery.reset_full();
        let capacity = battery.capacity();
        let mut min_soc = capacity;

        let mut stats = YearStats {
            days: 365,
            full_battery_days: 0,
            downtime_days: 0,
            unmet_energy: WattHours::ZERO,
            curtailed_energy: WattHours::ZERO,
            generation: WattHours::ZERO,
            consumption: WattHours::ZERO,
            min_soc_fraction: 1.0,
        };

        let mut complete = true;
        let days = env.ambient.iter().zip(env.poa.chunks_exact(24));
        'year: for (&ambient, poa_day) in days {
            let mut full_today = false;
            let mut unmet_today = false;
            for (hour, &poa) in poa_day.iter().enumerate() {
                let generation = WattHours::new(self.pv.output_power_w(poa, ambient));
                let load = self.load.energy_at_hour(hour);
                let step = battery.step(generation, load);
                stats.generation += generation;
                stats.consumption += load;
                stats.unmet_energy += step.unmet;
                stats.curtailed_energy += step.curtailed;
                full_today |= step.full_after;
                unmet_today |= step.unmet.value() > 0.0;
                let soc = battery.state_of_charge();
                if soc < min_soc {
                    min_soc = soc;
                }
                if stop_at_unmet && unmet_today {
                    complete = false;
                    break 'year;
                }
            }
            if full_today {
                stats.full_battery_days += 1;
            }
            if unmet_today {
                stats.downtime_days += 1;
            }
        }
        stats.min_soc_fraction = min_soc / capacity;
        (stats, complete)
    }

    /// Simulates several seeded years and returns the per-year stats.
    pub fn simulate_years(&self, seeds: &[u64]) -> Vec<YearStats> {
        seeds.iter().map(|&s| self.simulate_year(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate;

    fn system(location: Location, modules: u32, battery_wh: f64) -> OffGridSystem {
        OffGridSystem::new(
            location,
            PvArray::standard_modules(modules),
            Battery::with_capacity(WattHours::new(battery_wh)),
            DailyLoadProfile::repeater_paper_default(),
        )
    }

    #[test]
    fn madrid_standard_system_has_no_downtime() {
        let stats = system(climate::madrid(), 3, 720.0).simulate_year(1);
        assert_eq!(stats.downtime_days(), 0, "{stats}");
        assert!(stats.full_battery_day_fraction() > 0.90, "{stats}");
    }

    #[test]
    fn generation_dwarfs_load_in_madrid() {
        let stats = system(climate::madrid(), 3, 720.0).simulate_year(2);
        assert!(stats.generation() > stats.consumption() * 3.0);
        // most of the surplus is necessarily curtailed
        assert!(stats.curtailed_energy() > WattHours::ZERO);
    }

    #[test]
    fn berlin_worse_than_madrid() {
        let madrid = system(climate::madrid(), 3, 720.0).simulate_year(5);
        let berlin = system(climate::berlin(), 3, 720.0).simulate_year(5);
        assert!(
            berlin.full_battery_day_fraction() < madrid.full_battery_day_fraction(),
            "berlin {berlin}, madrid {madrid}"
        );
        assert!(berlin.min_soc_fraction() <= madrid.min_soc_fraction());
    }

    #[test]
    fn bigger_battery_never_hurts() {
        let small = system(climate::vienna(), 3, 720.0).simulate_year(9);
        let big = system(climate::vienna(), 3, 1440.0).simulate_year(9);
        assert!(big.downtime_days() <= small.downtime_days());
        assert!(big.unmet_energy() <= small.unmet_energy());
    }

    #[test]
    fn more_pv_never_hurts() {
        let small = system(climate::berlin(), 3, 720.0).simulate_year(13);
        let big = system(climate::berlin(), 5, 720.0).simulate_year(13);
        assert!(big.downtime_days() <= small.downtime_days());
        assert!(big.generation() > small.generation());
    }

    #[test]
    fn deterministic_weather_variant() {
        let sys = system(climate::lyon(), 3, 720.0).with_weather_variability(0.0, 0.0);
        let a = sys.simulate_year(1);
        let b = sys.simulate_year(99);
        // zero variability: the seed is irrelevant
        assert_eq!(a, b);
    }

    #[test]
    fn reproducible_per_seed() {
        let sys = system(climate::vienna(), 3, 720.0);
        assert_eq!(sys.simulate_year(4), sys.simulate_year(4));
        let multi = sys.simulate_years(&[1, 2, 3]);
        assert_eq!(multi.len(), 3);
        assert_eq!(multi[0], sys.simulate_year(1));
    }

    #[test]
    fn consumption_matches_profile() {
        let stats = system(climate::madrid(), 3, 720.0).simulate_year(3);
        let expected = DailyLoadProfile::repeater_paper_default()
            .daily_energy()
            .value()
            * 365.0;
        assert!((stats.consumption().value() - expected).abs() < 1e-6);
    }

    #[test]
    fn stats_display() {
        let stats = system(climate::madrid(), 3, 720.0).simulate_year(1);
        let s = stats.to_string();
        assert!(s.contains("% days full"));
    }

    /// The year loop as written before screening, kept as the reference
    /// for the shared stepping routine: indexed environment reads and the
    /// minimum state of charge taken over hourly fractions.
    fn reference_year(system: &OffGridSystem, seed: u64) -> YearStats {
        let env = crate::environment::cached_year(
            &system.location,
            &system.transposition,
            system.variability,
            system.persistence,
            seed,
        );
        let mut battery = system.battery;
        battery.reset_full();
        let mut stats = YearStats {
            days: 365,
            full_battery_days: 0,
            downtime_days: 0,
            unmet_energy: WattHours::ZERO,
            curtailed_energy: WattHours::ZERO,
            generation: WattHours::ZERO,
            consumption: WattHours::ZERO,
            min_soc_fraction: 1.0,
        };
        for day in 0..365usize {
            let ambient = env.ambient[day];
            let mut full_today = false;
            let mut unmet_today = false;
            for hour in 0..24usize {
                let poa = env.poa[day * 24 + hour];
                let generation = WattHours::new(system.pv.output_power_w(poa, ambient));
                let load = system.load.energy_at_hour(hour);
                let step = battery.step(generation, load);
                stats.generation += generation;
                stats.consumption += load;
                stats.unmet_energy += step.unmet;
                stats.curtailed_energy += step.curtailed;
                full_today |= step.full_after;
                unmet_today |= step.unmet.value() > 0.0;
                stats.min_soc_fraction = stats.min_soc_fraction.min(battery.soc_fraction());
            }
            if full_today {
                stats.full_battery_days += 1;
            }
            if unmet_today {
                stats.downtime_days += 1;
            }
        }
        stats
    }

    #[test]
    fn stepping_matches_the_hourly_fraction_reference() {
        let mut downtime_years = 0;
        for location in climate::paper_regions() {
            for (modules, battery_wh) in [(3, 300.0), (3, 720.0), (4, 1440.0)] {
                let sys = system(location.clone(), modules, battery_wh);
                for seed in [7, 46] {
                    let reference = reference_year(&sys, seed);
                    let simulated = sys.simulate_year(seed);
                    assert_eq!(simulated, reference, "{} {seed}", location.name());
                    assert_eq!(
                        simulated.min_soc_fraction().to_bits(),
                        reference.min_soc_fraction().to_bits()
                    );
                    let screened = sys.screen_year(seed);
                    if reference.downtime_days() == 0 {
                        assert_eq!(screened, Some(reference));
                    } else {
                        downtime_years += 1;
                        assert_eq!(screened, None);
                    }
                }
            }
        }
        assert!(
            downtime_years > 0,
            "some years must exercise the early exit"
        );
    }
}
