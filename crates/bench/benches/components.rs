//! Microbenchmarks for the hot components of the pipeline: the mobility
//! metrics (computed millions of times per study), the spatial index,
//! serving-cell resolution, the scheduler, the cell-day KPI medians,
//! and the dwell reconstruction.
//!
//! Run with `cargo bench -p cellscope-bench --bench components`.

use cellscope_core::kpi_stats::HourlyKpiSample;
use cellscope_core::{
    mobility_entropy, radius_of_gyration, top_n_towers, CellDayMetrics, TowerDwell,
};
use cellscope_geo::{Point, SynthConfig};
use cellscope_radio::{
    CellCapacity, DeployConfig, HourLoad, Rat, Scheduler, SiteId, VoiceLoad,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn synthetic_dwell(n: usize, seed: u64) -> Vec<TowerDwell> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| TowerDwell {
            tower: i as u32,
            location: Point::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
            seconds: rng.gen_range(60.0..30_000.0),
        })
        .collect()
}

fn bench_mobility_metrics(c: &mut Criterion) {
    let dwell = synthetic_dwell(8, 1);
    c.bench_function("entropy_8_towers", |b| {
        b.iter(|| mobility_entropy(black_box(&dwell)))
    });
    c.bench_function("gyration_8_towers", |b| {
        b.iter(|| radius_of_gyration(black_box(&dwell)))
    });
    let many = synthetic_dwell(60, 2);
    c.bench_function("top20_of_60_towers", |b| {
        b.iter(|| top_n_towers(black_box(&many), 20))
    });
}

fn bench_scheduler(c: &mut Criterion) {
    let scheduler = Scheduler::default();
    let capacity = CellCapacity::typical(Rat::G4);
    let load = HourLoad {
        offered_dl_mb: 8_000.0,
        offered_ul_mb: 900.0,
        active_dl_users: 6.0,
        connected_users: 420.0,
        app_limit_mbps: 7.3,
        voice: VoiceLoad {
            volume_mb: 40.0,
            simultaneous_users: 3.0,
        },
    };
    c.bench_function("scheduler_serve_cell_hour", |b| {
        b.iter(|| scheduler.serve(black_box(capacity), black_box(&load)))
    });
    let hours = busiest_cell_day();
    c.bench_function("cell_day_medians_24h", |b| {
        b.iter(|| CellDayMetrics::from_hourly(0, 0, black_box(&hours)))
    });
}

/// One real cell-day as phase B hands it to `from_hourly`: a `tiny`
/// world's first day through the load generator and the scheduler, at
/// its busiest 4G cell. The population weight multiplies loads, it
/// does not change the work, so the loads are unweighted.
fn busiest_cell_day() -> Vec<HourlyKpiSample> {
    use cellscope_mobility::{DayTrajectory, TrajectoryGenerator};
    use cellscope_radio::{Cell, CellHourKpi};
    use cellscope_scenario::run::{hourly_sample, load_generator};
    use cellscope_scenario::{ScenarioConfig, World};
    use cellscope_traffic::DayLoadGrid;

    let config = ScenarioConfig::tiny(9);
    let world = World::build(&config);
    let day = 0;
    let date = world.clock.date(day);
    let mut trajgen =
        TrajectoryGenerator::new(&world.geo, &world.behavior, world.clock, config.seed);
    let loadgen = load_generator(&config, 1.0);
    let mut grid = DayLoadGrid::new(world.topo.cells().len());
    let mut traj = DayTrajectory::default();
    for sub in world.population.subscribers() {
        trajgen.generate_into(sub, day, &mut traj);
        loadgen.accumulate(sub, &traj, date, 0.0, 0.0, &world.topo, &mut grid);
    }
    let users = |c: &Cell| -> f64 {
        (0..24)
            .map(|h| grid.get(c.id.index(), h).connected_users)
            .sum()
    };
    let busiest = world
        .topo
        .cells()
        .iter()
        .filter(|c| c.rat == Rat::G4 && c.is_active(day))
        .max_by(|a, b| users(a).total_cmp(&users(b)))
        .expect("a tiny world has active 4G cells");
    let scheduler = Scheduler::default();
    (0..24u8)
        .map(|hour| {
            let load = grid.get(busiest.id.index(), hour as usize);
            let radio = scheduler.serve(busiest.capacity, load);
            hourly_sample(&CellHourKpi::from_radio(busiest.id, day, hour, &radio, 0.0))
        })
        .collect()
}

fn bench_spatial_index(c: &mut Criterion) {
    let geo = SynthConfig::small(9).build();
    let topo = DeployConfig::small(9).build(&geo);
    let mut rng = StdRng::seed_from_u64(9);
    let bounds = geo.bounds();
    let points: Vec<Point> = (0..256)
        .map(|_| {
            Point::new(
                rng.gen_range(bounds.min.x..bounds.max.x),
                rng.gen_range(bounds.min.y..bounds.max.y),
            )
        })
        .collect();
    c.bench_function("nearest_site_grid_index", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % points.len();
            topo.nearest_site(black_box(points[i]))
        })
    });
    // How load accumulation resolves a visit's 4G cell: straight from
    // the visit's site id, no spatial search.
    let num_sites = topo.sites().len();
    c.bench_function("serving_cell_at_site", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % num_sites;
            topo.serving_cell_at_site(black_box(SiteId(i as u32)), Rat::G4, 30)
        })
    });
    c.bench_function("nearest_site_brute_force", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % points.len();
            topo.nearest_site_brute(black_box(points[i]))
        })
    });
}

fn bench_dwell_reconstruction(c: &mut Criterion) {
    use cellscope_epidemic::PhaseSchedule;
    use cellscope_mobility::{
        BehaviorModel, Population, PopulationConfig, TrajectoryGenerator,
    };
    use cellscope_signaling::{
        reconstruct_dwell, Anonymizer, EventGenConfig, EventGenerator, TacCatalog,
    };
    use cellscope_time::SimClock;

    let geo = SynthConfig::small(9).build();
    let topo = DeployConfig::small(9).build(&geo);
    let pop = Population::synthesize(
        &PopulationConfig {
            num_subscribers: 64,
            seed: 9,
            ..PopulationConfig::default()
        },
        &PhaseSchedule::uk_2020().relocation_waves,
        &geo,
        &topo,
    );
    let behavior = BehaviorModel::new(PhaseSchedule::uk_2020());
    let trajgen = TrajectoryGenerator::new(&geo, &behavior, SimClock::study(), 9);
    let catalog = TacCatalog::synthetic();
    let eventgen =
        EventGenerator::new(&topo, &catalog, Anonymizer::new(9), EventGenConfig::default());
    let sub = &pop.subscribers()[0];

    c.bench_function("trajectory_generate_user_day", |b| {
        let mut day = 0u16;
        b.iter(|| {
            day = (day + 1) % 100;
            trajgen.generate(black_box(sub), day)
        })
    });
    let traj = trajgen.generate(sub, 30);
    c.bench_function("events_generate_user_day", |b| {
        b.iter(|| eventgen.generate(black_box(sub), black_box(&traj)))
    });
    let events = eventgen.generate(sub, &traj);
    c.bench_function("dwell_reconstruct_user_day", |b| {
        b.iter(|| reconstruct_dwell(black_box(&events)))
    });
}

fn bench_mobility_study(c: &mut Criterion) {
    use cellscope_core::study::{MobilityStudy, StudyConfig, UserDayDwell};
    let dwell = synthetic_dwell(9, 5);
    c.bench_function("mobility_study_ingest_user_day", |b| {
        let mut study: MobilityStudy<u8> = MobilityStudy::new(StudyConfig::default(), 100);
        let mut user = 0u64;
        b.iter(|| {
            user += 1;
            study.ingest(
                UserDayDwell {
                    user,
                    day: (user % 100) as u16,
                    dwell: black_box(&dwell),
                    night_minutes: &[(1, 300)],
                },
                &[0, 1, 2],
            )
        })
    });
}

fn bench_interconnect(c: &mut Criterion) {
    use cellscope_radio::{Interconnect, InterconnectConfig};
    c.bench_function("interconnect_100_days", |b| {
        b.iter(|| {
            let mut link =
                Interconnect::new(InterconnectConfig::with_baseline_load(100.0, 1.15));
            let mut acc = 0.0;
            for day in 0..100u16 {
                let load = if (40..70).contains(&day) { 240.0 } else { 100.0 };
                acc += link.step(black_box(load)).dl_loss_rate;
            }
            acc
        })
    });
}

criterion_group!(
    benches,
    bench_mobility_metrics,
    bench_scheduler,
    bench_spatial_index,
    bench_dwell_reconstruction,
    bench_mobility_study,
    bench_interconnect
);
criterion_main!(benches);
