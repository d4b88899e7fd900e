//! Presence × demand → per-(4G cell, hour) offered load.
//!
//! Walks each subscriber-day trajectory, splits the day's demand across
//! the hours of presence, applies location-dependent WiFi offload, adds
//! conversational voice, and accumulates everything into a per-cell
//! hourly grid ready for the radio scheduler. Traffic always rides the
//! site's 4G cell (the paper's KPI analysis covers 4G, where "users spend
//! on average 75% of the time" and which carries the overwhelming load).

use crate::demand::{DemandModel, HOURLY_WEIGHTS, VOICE_HOURLY_WEIGHTS};
use crate::throttle::ThrottlePolicy;
use crate::voice::VoiceModel;
use cellscope_mobility::{DayTrajectory, DeviceClass, Subscriber};
use cellscope_radio::{HourLoad, Topology};
use cellscope_time::Date;
use serde::{Deserialize, Serialize};

/// Offered load of one cell-hour (re-exported alias of the radio-side
/// input type: the generator writes exactly what the scheduler reads).
pub type CellHourLoad = HourLoad;

/// A day's accumulated offered load for every cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DayLoadGrid {
    loads: Vec<[HourLoad; 24]>,
    total_voice_mb: f64,
}

impl DayLoadGrid {
    /// An empty grid for `num_cells` cells.
    pub fn new(num_cells: usize) -> DayLoadGrid {
        DayLoadGrid {
            loads: vec![[HourLoad::default(); 24]; num_cells],
            total_voice_mb: 0.0,
        }
    }

    /// Reset in place for the next day (avoids reallocating ~MBs).
    pub fn clear(&mut self) {
        for cell in &mut self.loads {
            *cell = [HourLoad::default(); 24];
        }
        self.total_voice_mb = 0.0;
    }

    /// The accumulated load of one cell-hour.
    pub fn get(&self, cell: usize, hour: usize) -> &HourLoad {
        &self.loads[cell][hour]
    }

    /// National voice volume accumulated today (per direction, MB) —
    /// the interconnect's offered load is derived from this.
    pub fn total_voice_mb(&self) -> f64 {
        self.total_voice_mb
    }

    /// Iterate (cell index, hour, load) over non-empty cell-hours.
    pub fn iter_loaded(&self) -> impl Iterator<Item = (usize, usize, &HourLoad)> {
        self.loads.iter().enumerate().flat_map(|(ci, hours)| {
            hours
                .iter()
                .enumerate()
                .filter(|(_, l)| l.connected_users > 0.0 || l.offered_dl_mb > 0.0)
                .map(move |(h, l)| (ci, h, l))
        })
    }

    /// Number of cells the grid covers.
    pub fn num_cells(&self) -> usize {
        self.loads.len()
    }
}

/// The load generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadGenerator {
    /// Data-demand model.
    pub demand: DemandModel,
    /// Voice model.
    pub voice: VoiceModel,
    /// Content-provider throttling policy.
    pub throttle: ThrottlePolicy,
    /// Population scale factor: how many real subscribers one synthetic
    /// subscriber stands for. Calibrated by the runner so the median
    /// cell reaches a realistic utilization (every per-user quantity —
    /// volumes, user counts, voice — is multiplied by it).
    pub scale: f64,
}

impl Default for LoadGenerator {
    fn default() -> Self {
        LoadGenerator {
            demand: DemandModel::default(),
            voice: VoiceModel::default(),
            throttle: ThrottlePolicy::default(),
            scale: 1.0,
        }
    }
}

impl LoadGenerator {
    /// Accumulate one subscriber-day into the grid.
    ///
    /// `intensity` is the national restriction intensity of the date
    /// (the demand mix responds to it). `confinement` is the *ratcheted*
    /// restriction level driving at-home WiFi settling: households that
    /// moved onto broadband during lockdown stayed there even as
    /// restrictions eased. Presence itself already reflects behaviour
    /// via the trajectory.
    pub fn accumulate(
        &self,
        sub: &Subscriber,
        trajectory: &DayTrajectory,
        date: Date,
        intensity: f64,
        confinement: f64,
        topo: &Topology,
        grid: &mut DayLoadGrid,
    ) {
        if trajectory.visits.is_empty() {
            return;
        }
        let day = trajectory.day;
        let demand = self.demand.for_subscriber(sub, date, intensity);
        let voice_minutes = if sub.device == DeviceClass::Smartphone {
            self.voice.minutes_for(sub.segment, date)
        } else {
            0.0
        };
        let app_limit = self.throttle.app_limit_mbps(date);

        for visit in &trajectory.visits {
            // The visit's site must expose an active 4G cell to carry
            // KPI-visible traffic. Resolved from the site id, not by a
            // nearest-site search from its location: every deployed site
            // is its own nearest site (`tests/deployment_invariants.rs`),
            // so both give the same cell.
            let Some(cell) = topo.serving_cell_at_site(visit.site, cellscope_radio::Rat::G4, day)
            else {
                continue;
            };
            let cell_idx = cell.index();

            let cellular_rate =
                self.demand.cellular_rate(visit.kind, sub.home_cluster, confinement);
            let cellular_ul_rate =
                self.demand.cellular_ul_rate(visit.kind, sub.home_cluster, confinement);

            // Spread the visit evenly over its bin's four hours.
            let per_hour_minutes = visit.minutes as f64 / 4.0;
            for hour in visit.bin.hours() {
                let h = hour as usize;
                let presence = per_hour_minutes / 60.0;
                // HOURLY_WEIGHTS describe a fully-present hour; a visit
                // covering `per_hour_minutes` of it generates the
                // proportional slice, so co-located visits of one hour
                // sum to exactly one hour of demand.
                let dl_device = demand.dl_mb * HOURLY_WEIGHTS[h] * presence;
                let dl_cellular = dl_device * cellular_rate * self.scale;
                let ul_cellular = dl_device * demand.ul_ratio * cellular_ul_rate * self.scale;

                let load = &mut grid.loads[cell_idx][h];
                load.offered_dl_mb += dl_cellular;
                load.offered_ul_mb += ul_cellular;
                load.connected_users += presence * self.scale;
                // Average concurrent active DL users contributed: the
                // fraction of the hour this user keeps the DL buffer
                // busy when served at the app-limited rate (Erlangs).
                let mb_per_hour_at_limit = app_limit * 450.0; // Mbps → MB/h
                load.active_dl_users += dl_cellular / mb_per_hour_at_limit;
                load.app_limit_mbps = app_limit;

                // Voice.
                if voice_minutes > 0.0 {
                    let minutes_here = voice_minutes
                        * VOICE_HOURLY_WEIGHTS[h]
                        * (per_hour_minutes / 60.0)
                        * self.scale;
                    let vol = self.voice.volume_mb(minutes_here);
                    load.voice.volume_mb += vol;
                    load.voice.simultaneous_users += minutes_here / 60.0;
                    grid.total_voice_mb += vol;
                }
            }
        }
    }

    /// The interconnect's offered load for a day, from the grid's
    /// accumulated voice volume.
    pub fn off_net_voice_mb(&self, grid: &DayLoadGrid) -> f64 {
        self.voice.off_net_volume_mb(grid.total_voice_mb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellscope_epidemic::PhaseSchedule;
    use cellscope_geo::{Geography, SynthConfig};
    use cellscope_mobility::{
        BehaviorModel, Population, PopulationConfig, TrajectoryGenerator,
    };
    use cellscope_radio::DeployConfig;
    use cellscope_time::SimClock;

    struct World {
        geo: Geography,
        topo: Topology,
        pop: Population,
        behavior: BehaviorModel,
    }

    fn world() -> World {
        let geo = SynthConfig::small(6).build();
        let topo = DeployConfig::small(6).build(&geo);
        let pop = Population::synthesize(
            &PopulationConfig {
                num_subscribers: 1_500,
                seed: 6,
                ..PopulationConfig::default()
            },
            &PhaseSchedule::uk_2020().relocation_waves,
            &geo,
            &topo,
        );
        World {
            geo,
            topo,
            pop,
            behavior: BehaviorModel::new(PhaseSchedule::uk_2020()),
        }
    }

    fn day_grid(w: &World, day: u16) -> (DayLoadGrid, Date) {
        let clock = SimClock::study();
        let date = clock.date(day);
        let generator = TrajectoryGenerator::new(&w.geo, &w.behavior, clock, 6);
        let lg = LoadGenerator::default();
        let intensity = w.behavior.schedule().intensity(date);
        let mut grid = DayLoadGrid::new(w.topo.cells().len());
        for sub in w.pop.subscribers() {
            let traj = generator.generate(sub, day);
            lg.accumulate(sub, &traj, date, intensity, intensity, &w.topo, &mut grid);
        }
        (grid, date)
    }

    fn national(grid: &DayLoadGrid) -> (f64, f64, f64, f64) {
        let mut dl = 0.0;
        let mut ul = 0.0;
        let mut voice = 0.0;
        let mut users = 0.0;
        for (_, _, load) in grid.iter_loaded() {
            dl += load.offered_dl_mb;
            ul += load.offered_ul_mb;
            voice += load.voice.volume_mb;
            users += load.connected_users;
        }
        (dl, ul, voice, users)
    }

    #[test]
    fn baseline_day_volume_is_sane() {
        let w = world();
        // Study day 24 = Tue Feb 25 (week 9).
        let (grid, _) = day_grid(&w, 24);
        let (dl, ul, voice, _) = national(&grid);
        let smartphones = w
            .pop
            .subscribers()
            .iter()
            .filter(|s| s.device == DeviceClass::Smartphone)
            .count() as f64;
        // Per-smartphone cellular DL lands in a plausible band
        // (device demand ~550 MB, most offloaded to WiFi).
        let per_user = dl / smartphones;
        assert!(
            (60.0..320.0).contains(&per_user),
            "per-user cellular DL {per_user} MB"
        );
        // DL an order of magnitude above UL (paper Section 4.1).
        assert!(dl / ul > 5.0 && dl / ul < 25.0, "DL/UL {}", dl / ul);
        assert!(voice > 0.0);
    }

    #[test]
    fn lockdown_reduces_dl_but_grows_voice() {
        let w = world();
        let (base, _) = day_grid(&w, 24); // Tue week 9
        let (lock, _) = day_grid(&w, 59); // Tue Mar 31, week 14
        let (dl_b, ul_b, v_b, u_b) = national(&base);
        let (dl_l, ul_l, v_l, u_l) = national(&lock);
        assert!(dl_l < 0.92 * dl_b, "DL {dl_b} -> {dl_l}");
        // Voice roughly doubles or more.
        assert!(v_l > 1.8 * v_b, "voice {v_b} -> {v_l}");
        // Uplink falls much less than downlink.
        let dl_drop = 1.0 - dl_l / dl_b;
        let ul_drop = 1.0 - ul_l / ul_b;
        assert!(ul_drop < dl_drop, "UL drop {ul_drop} vs DL drop {dl_drop}");
        // Connected users stay near-constant nationally (phones still on),
        // modulo departed tourists/relocators.
        assert!(u_l > 0.85 * u_b, "users {u_b} -> {u_l}");
    }

    #[test]
    fn grid_clear_resets_everything() {
        let w = world();
        let (mut grid, _) = day_grid(&w, 24);
        assert!(grid.total_voice_mb() > 0.0);
        grid.clear();
        assert_eq!(grid.total_voice_mb(), 0.0);
        assert_eq!(grid.iter_loaded().count(), 0);
    }

    #[test]
    fn off_net_share_applied() {
        let w = world();
        let (grid, _) = day_grid(&w, 24);
        let lg = LoadGenerator::default();
        let off_net = lg.off_net_voice_mb(&grid);
        assert!((off_net / grid.total_voice_mb() - 0.55).abs() < 1e-9);
    }

    #[test]
    fn empty_trajectory_contributes_nothing() {
        let w = world();
        let lg = LoadGenerator::default();
        let mut grid = DayLoadGrid::new(w.topo.cells().len());
        let sub = &w.pop.subscribers()[0];
        let empty = DayTrajectory {
            subscriber: sub.id,
            day: 0,
            visits: Vec::new(),
        };
        lg.accumulate(sub, &empty, Date::ymd(2020, 2, 1), 0.0, 0.0, &w.topo, &mut grid);
        assert_eq!(grid.iter_loaded().count(), 0);
    }

    #[test]
    fn m2m_volume_is_negligible() {
        let w = world();
        let clock = SimClock::study();
        let generator = TrajectoryGenerator::new(&w.geo, &w.behavior, clock, 6);
        let lg = LoadGenerator::default();
        let mut grid = DayLoadGrid::new(w.topo.cells().len());
        let date = clock.date(24);
        for sub in w.pop.subscribers() {
            if sub.device == DeviceClass::M2m {
                let traj = generator.generate(sub, 24);
                lg.accumulate(sub, &traj, date, 0.0, 0.0, &w.topo, &mut grid);
            }
        }
        let (dl, _, voice, _) = national(&grid);
        let m2m_count = w
            .pop
            .subscribers()
            .iter()
            .filter(|s| s.device == DeviceClass::M2m)
            .count() as f64;
        assert!(dl / m2m_count < 1.0, "per-M2M DL {}", dl / m2m_count);
        assert_eq!(voice, 0.0, "M2M devices make no calls");
    }
}
