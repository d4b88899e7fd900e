//! The traced run's kernel tour: each layer's public hot-loop function
//! timed on one thread over every subscriber of the workload's config
//! on two fixed days, after one warm-up pass, with the heap
//! allocations the timed pass made.

use crate::sys::allocations;
use cellscope_core::kpi_stats::HourlyKpiSample;
use cellscope_core::{
    top_n_towers_into, CellDayMetrics, MobilityStudy, StudyConfig, TowerDwell, UserDayDwell,
};
use cellscope_mobility::{DayTrajectory, TrajectoryGenerator};
use cellscope_radio::scheduler::HourRadioKpi;
use cellscope_radio::{Cell, CellHourKpi, Rat, Scheduler, SchedulerConfig, SiteId};
use cellscope_scenario::{run::load_generator, ScenarioConfig, World};
use cellscope_signaling::columnar::{decode_events_into, encode_events, DecodeScratch};
use cellscope_signaling::{
    reconstruct_dwell_into, write_events_jsonl, DwellRecord, EventGenerator, EventReader,
    FeedBounds, SignalingEvent,
};
use cellscope_time::{Date, SimDay, Weekday};
use cellscope_traffic::DayLoadGrid;
use std::time::Instant;

/// A week-9 and a week-14 Tuesday. A date outside the study window is
/// replaced by the window's last Tuesday.
const TOUR_DATES: [(i32, u8, u8); 2] = [(2020, 2, 25), (2020, 3, 31)];

/// The days the tour runs on.
pub fn tour_days(world: &World) -> Vec<SimDay> {
    let clock = &world.clock;
    let last_tuesday = clock
        .days()
        .filter(|&d| clock.weekday(d) == Weekday::Tuesday)
        .last();
    TOUR_DATES
        .iter()
        .filter_map(|&(y, m, d)| clock.day_of(Date::ymd(y, m, d)).or(last_tuesday))
        .collect()
}

/// Time and allocation count of one kernel's timed pass.
struct Pass {
    seconds: f64,
    allocs: u64,
}

/// Run `f` twice — warm-up, then timed — and keep the timed pass.
fn warm_pass(mut f: impl FnMut()) -> Pass {
    f();
    let a0 = allocations();
    let t0 = Instant::now();
    f();
    Pass {
        seconds: t0.elapsed().as_secs_f64(),
        allocs: allocations() - a0,
    }
}

/// Per-layer figures of the tour, as `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

fn per_unit(out: &mut Metrics, name: &str, unit_name: &str, p: &Pass, units: usize) {
    let units = units.max(1) as f64;
    out.push((
        format!("{name}_ns_per_{unit_name}"),
        p.seconds * 1e9 / units,
        "ns",
    ));
    out.push((
        format!("{name}_allocs_per_{unit_name}"),
        p.allocs as f64 / units,
        "count",
    ));
}

/// Run the tour; fails if the feed codecs disagree with the generated
/// events.
pub fn kernel_tour(config: &ScenarioConfig, world: &World) -> Result<Metrics, String> {
    let days = tour_days(world);
    let subs = world.population.subscribers();
    let topo = &world.topo;
    let n = subs.len() * days.len();
    let user_day = |k: usize| (&subs[k % subs.len()], days[k / subs.len()]);

    let mut trajgen =
        TrajectoryGenerator::new(&world.geo, &world.behavior, world.clock, config.seed);
    let mut eventgen = EventGenerator::new(topo, &world.catalog, world.anonymizer, config.events);
    let mut trajs: Vec<DayTrajectory> = (0..n).map(|_| DayTrajectory::default()).collect();
    let mut events: Vec<Vec<SignalingEvent>> = vec![Vec::new(); n];
    let mut dwells: Vec<Vec<DwellRecord>> = vec![Vec::new(); n];
    let mut out = Metrics::new();

    let p = warm_pass(|| {
        for (k, traj) in trajs.iter_mut().enumerate() {
            let (sub, day) = user_day(k);
            trajgen.generate_into(sub, day, traj);
        }
    });
    per_unit(&mut out, "mobility.trajgen", "user_day", &p, n);

    let p = warm_pass(|| {
        for (k, ev) in events.iter_mut().enumerate() {
            eventgen.generate_into(user_day(k).0, &trajs[k], ev);
        }
    });
    per_unit(&mut out, "signaling.eventgen", "user_day", &p, n);
    let num_events: usize = events.iter().map(Vec::len).sum();
    out.push((
        "signaling.events_per_user_day".into(),
        num_events as f64 / n as f64,
        "count",
    ));

    let p = warm_pass(|| {
        for (ev, dw) in events.iter().zip(dwells.iter_mut()) {
            reconstruct_dwell_into(ev, dw);
        }
    });
    per_unit(&mut out, "signaling.dwell", "user_day", &p, n);

    let towers: Vec<Vec<TowerDwell>> = dwells
        .iter()
        .map(|dw| {
            dw.iter()
                .map(|r| {
                    let site = topo.cell(r.cell).site;
                    TowerDwell {
                        tower: site.0,
                        location: topo.site(SiteId(site.0)).location,
                        seconds: r.minutes as f64 * 60.0,
                    }
                })
                .collect()
        })
        .collect();
    let mut top = Vec::new();
    let p = warm_pass(|| {
        for tw in &towers {
            top_n_towers_into(tw, 20, &mut top);
        }
    });
    per_unit(&mut out, "core.top_n", "user_day", &p, n);

    let num_days = world.num_days();
    let mut study: MobilityStudy<u8> = MobilityStudy::new(StudyConfig::default(), num_days);
    let p = warm_pass(|| {
        for (k, tw) in towers.iter().enumerate() {
            let input = UserDayDwell {
                user: k as u64,
                day: user_day(k).1,
                dwell: tw,
                night_minutes: &[],
            };
            study.ingest_with(input, &[0u8], &mut top);
        }
    });
    per_unit(&mut out, "core.ingest", "user_day", &p, n);

    // The population weight multiplies loads; it does not change the
    // work, so the tour accumulates unweighted loads.
    let loadgen = load_generator(config, 1.0);
    let schedule = world.behavior.schedule();
    let mut grids: Vec<DayLoadGrid> = days
        .iter()
        .map(|_| DayLoadGrid::new(topo.cells().len()))
        .collect();
    let p = warm_pass(|| {
        for grid in grids.iter_mut() {
            grid.clear();
        }
        for (k, traj) in trajs.iter().enumerate() {
            let (sub, day) = user_day(k);
            let date = world.clock.date(day);
            let (intensity, confinement) = (schedule.intensity(date), schedule.confinement(date));
            let grid = &mut grids[k / subs.len()];
            loadgen.accumulate(sub, traj, date, intensity, confinement, topo, grid);
        }
    });
    per_unit(&mut out, "traffic.accumulate", "user_day", &p, n);

    let scheduler = Scheduler::new(SchedulerConfig::default());
    let cell_days: Vec<(usize, &Cell, u16)> = days
        .iter()
        .enumerate()
        .flat_map(|(di, &day)| {
            topo.cells()
                .iter()
                .filter(move |c| c.rat == Rat::G4 && c.is_active(day))
                .map(move |c| (di, c, day))
        })
        .collect();
    let mut radio: Vec<[HourRadioKpi; 24]> = Vec::with_capacity(cell_days.len());
    let p = warm_pass(|| {
        radio.clear();
        for &(di, cell, _) in &cell_days {
            radio.push(std::array::from_fn(|hour| {
                scheduler.serve(cell.capacity, grids[di].get(cell.id.index(), hour))
            }));
        }
    });
    per_unit(
        &mut out,
        "radio.serve",
        "cell_hour",
        &p,
        cell_days.len() * 24,
    );

    let samples: Vec<Vec<HourlyKpiSample>> = cell_days
        .iter()
        .zip(&radio)
        .map(|(&(_, cell, day), hours)| {
            let cell = cell.id;
            hours
                .iter()
                .enumerate()
                .map(|(hour, r)| {
                    let k = CellHourKpi::from_radio(cell, day, hour as u8, r, 0.0);
                    HourlyKpiSample {
                        dl_volume_mb: k.dl_volume_mb,
                        ul_volume_mb: k.ul_volume_mb,
                        active_dl_users: k.active_dl_users,
                        connected_users: k.connected_users,
                        user_dl_throughput_mbps: k.user_dl_throughput_mbps,
                        tti_utilization: k.tti_utilization,
                        voice_volume_mb: k.voice.volume_mb,
                        voice_users: k.voice.simultaneous_users,
                        voice_ul_loss: k.voice.ul_loss_rate,
                        voice_dl_loss: k.voice.dl_loss_rate,
                    }
                })
                .collect()
        })
        .collect();
    let mut kept = 0usize;
    let p = warm_pass(|| {
        kept = 0;
        for (&(_, cell, day), hours) in cell_days.iter().zip(&samples) {
            kept += CellDayMetrics::from_hourly(cell.id.0, day, hours).is_some() as usize;
        }
    });
    if kept != cell_days.len() {
        return Err(format!(
            "from_hourly kept {kept} of {} cell-days",
            cell_days.len()
        ));
    }
    out.push((
        "core.cell_day_ns".into(),
        p.seconds * 1e9 / cell_days.len().max(1) as f64,
        "ns",
    ));
    out.push((
        "core.cell_day_allocs".into(),
        p.allocs as f64 / cell_days.len().max(1) as f64,
        "count",
    ));

    feed_codecs(world, &days, &events, &mut out)?;
    Ok(out)
}

/// JSONL write and parse and `.csb` decode of each tour day's events
/// (subscriber order, as a day feed holds them).
fn feed_codecs(
    world: &World,
    days: &[SimDay],
    events: &[Vec<SignalingEvent>],
    out: &mut Metrics,
) -> Result<(), String> {
    let per_day = events.len() / days.len();
    let day_events: Vec<Vec<SignalingEvent>> = events.chunks(per_day).map(|c| c.concat()).collect();
    let total: usize = day_events.iter().map(Vec::len).sum();
    let bounds = FeedBounds {
        num_days: world.num_days() as u16,
        num_cells: world.topo.cells().len() as u32,
    };

    let mut lines: Vec<Vec<u8>> = vec![Vec::new(); days.len()];
    let write = warm_pass(|| {
        for (buf, evs) in lines.iter_mut().zip(&day_events) {
            buf.clear();
            write_events_jsonl(&mut *buf, evs).expect("writing to memory");
        }
    });

    let mut parsed: Vec<Vec<SignalingEvent>> = vec![Vec::new(); days.len()];
    let mut parse_err = None;
    let parse = warm_pass(|| {
        for (buf, evs) in lines.iter().zip(parsed.iter_mut()) {
            evs.clear();
            for ev in EventReader::new(&buf[..]).with_bounds(bounds) {
                match ev {
                    Ok(ev) => evs.push(ev),
                    Err(e) => parse_err = Some(e.to_string()),
                }
            }
        }
    });
    if let Some(e) = parse_err {
        return Err(format!("JSONL parse of generated events failed: {e}"));
    }

    let segments: Vec<Vec<u8>> = days
        .iter()
        .zip(&day_events)
        .map(|(&d, evs)| encode_events(d, evs))
        .collect();
    let mut decoded: Vec<Vec<SignalingEvent>> = vec![Vec::new(); days.len()];
    let mut scratch = DecodeScratch::default();
    let mut decode_err = None;
    let decode = warm_pass(|| {
        for (seg, evs) in segments.iter().zip(decoded.iter_mut()) {
            if let Err(e) = decode_events_into(seg, &mut scratch, evs) {
                decode_err = Some(e.to_string());
            }
        }
    });
    if let Some(e) = decode_err {
        return Err(format!(".csb decode of generated events failed: {e}"));
    }
    if parsed != day_events || decoded != day_events {
        return Err("feed codecs do not round-trip the generated events".into());
    }

    let per_event = |p: &Pass| p.seconds * 1e9 / total.max(1) as f64;
    out.push((
        "signaling.jsonl_write_ns_per_event".into(),
        per_event(&write),
        "ns",
    ));
    out.push((
        "signaling.jsonl_parse_ns_per_event".into(),
        per_event(&parse),
        "ns",
    ));
    out.push((
        "signaling.csb_decode_ns_per_event".into(),
        per_event(&decode),
        "ns",
    ));
    Ok(())
}
