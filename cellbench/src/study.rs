//! The `study` and `sharded` workloads: the paper reproduction through
//! the in-memory runner or the sharded runner, then every figure.

use crate::checks::{check_daily_medians, check_headline, dataset_digest, MEDIAN_FIELDS};
use crate::sys::{peak_rss_mb, timed, Sample};
use crate::{draw, for_rounds, layers, median, Args, Outcome, FIXTURE_SEED, THREADS};
use cellscope_exec::{Executor, RunMetrics};
use cellscope_scenario::figures::{self, FigureSet};
use cellscope_scenario::{
    run_study_sharded, run_study_with, ScenarioConfig, ShardPlan, StudyDataset, World,
};
use std::time::Instant;

/// Subscribers of both study workloads (the `full` preset's geography
/// and window, a fifth of its population).
pub const SUBSCRIBERS: u32 = 8_000;

/// The `full` preset at [`SUBSCRIBERS`] subscribers on [`THREADS`]
/// threads, drawn by `seed` on the fixed fixture.
pub fn config(seed: u64) -> ScenarioConfig {
    let mut config = draw(
        ScenarioConfig::full(FIXTURE_SEED),
        &ScenarioConfig::full(seed),
    );
    config.population.num_subscribers = SUBSCRIBERS;
    config.threads = THREADS;
    config
}

/// The `paper` preset's geometry scaled to `subscribers`: one-day
/// shards, five subscriber ranges, 4,096-cell KPI shards and county
/// masks spilled to disk.
pub fn plan(subscribers: u32) -> ShardPlan {
    ShardPlan {
        days_per_shard: 1,
        subs_per_shard: (subscribers as usize).div_ceil(5),
        cells_per_shard: 4_096,
        spill_masks: true,
        capacity: 0,
    }
}

/// One round's outputs and costs.
struct Round {
    dataset: StudyDataset,
    figures: FigureSet,
    study: Sample,
    figures_time: Sample,
    stages: RunMetrics,
}

fn round(
    config: &ScenarioConfig,
    world: &World,
    plan: Option<&ShardPlan>,
) -> Result<Round, String> {
    let mut exec = Executor::new(THREADS);
    let (dataset, study) = timed(|| match plan {
        Some(plan) => run_study_sharded(config, world, &mut exec, plan).map_err(|e| e.to_string()),
        None => run_study_with(config, world, &mut exec).map_err(|e| e.to_string()),
    });
    let dataset = dataset?;
    let (figures, figures_time) = timed(|| figures::build_all(&dataset, THREADS));
    let figures = figures.map_err(|e| e.to_string())?;
    Ok(Round {
        dataset,
        figures,
        study,
        figures_time,
        stages: exec.take_metrics("study"),
    })
}

/// The checks every round's first output gets.
fn check_outputs(out: &mut Outcome, r: &Round) -> Result<u64, String> {
    let num_days = r.dataset.clock.num_days();
    let kernel = r
        .dataset
        .kpi
        .daily_medians_multi(&MEDIAN_FIELDS, num_days, |_| true);
    out.check(check_daily_medians(
        r.dataset.kpi.records(),
        &kernel,
        num_days,
    ));
    out.check(check_headline(&r.figures.headline));
    dataset_digest(&r.dataset, &r.figures)
}

pub fn run(args: &Args, sharded: bool, start: Instant) -> Result<Outcome, String> {
    let config = config(args.seed);
    let (world, build) = timed(|| World::build(&config));
    let setup_s = start.elapsed().as_secs_f64();
    let plan = sharded.then(|| plan(SUBSCRIBERS));
    println!(
        "workload {}: {} subscribers x {} days, {} threads, seed {}",
        args.workload,
        SUBSCRIBERS,
        world.num_days(),
        THREADS,
        args.seed
    );
    let mut out = Outcome::default();
    if args.trace {
        traced(&config, &world, plan.as_ref(), build, &mut out)?;
        return Ok(out);
    }

    let mut samples: Vec<Sample> = Vec::new();
    let mut digest: Option<u64> = None;
    let mut first_round_rss = None;
    let mut error = None;
    for_rounds(args.seconds, || {
        out.attempted += 1;
        let r = match round(&config, &world, plan.as_ref()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("round failed: {e}");
                out.failed += 1;
                return;
            }
        };
        let mut sample = r.study;
        sample += r.figures_time;
        samples.push(sample);
        first_round_rss.get_or_insert_with(peak_rss_mb);
        match digest {
            None => match check_outputs(&mut out, &r) {
                Ok(d) => {
                    println!("dataset digest {d:016x}");
                    digest = Some(d);
                }
                Err(e) => error = Some(e),
            },
            Some(first) => match dataset_digest(&r.dataset, &r.figures) {
                Ok(d) => out.check(if d == first {
                    Ok(())
                } else {
                    Err(format!(
                        "round digest {d:016x} differs from the first round's {first:016x}"
                    ))
                }),
                Err(e) => error = Some(e),
            },
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    if samples.is_empty() {
        return Err("every round failed".into());
    }
    let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
    let cpus: Vec<f64> = samples.iter().map(|s| s.cpu).collect();
    println!("rounds {}: run_s {walls:?} cpu_s {cpus:?}", samples.len());
    out.metric("setup_s", setup_s, "s");
    out.metric("run_s", median(&walls), "s");
    out.metric("cpu_s", median(&cpus), "s");
    out.metric(
        "peak_rss_mb",
        first_round_rss.unwrap_or_else(peak_rss_mb),
        "MB",
    );
    Ok(out)
}

/// Stage walls, tasks and items summed by stage-name prefix.
pub fn stage_totals(stages: &RunMetrics, prefix: &str) -> (f64, u64, u64) {
    stages
        .stages
        .iter()
        .filter(|s| s.stage.starts_with(prefix))
        .fold((0.0, 0, 0), |(w, t, i), s| {
            (w + s.wall_seconds, t + s.tasks, i + s.items)
        })
}

/// The per-layer metrics every workload reports from a study run's
/// stages: phase walls and counts, figures and the median kernel.
pub fn stage_metrics(
    out: &mut Outcome,
    stages: &RunMetrics,
    dataset: &StudyDataset,
    figures: Sample,
) {
    // Repeated stages (the sharded runner's per-day pipelines) are
    // summed under one line.
    let mut names: Vec<&str> = Vec::new();
    for s in &stages.stages {
        if !names.contains(&s.stage.as_str()) {
            names.push(&s.stage);
        }
    }
    for name in names {
        let same = stages.stages.iter().filter(|s| s.stage == name);
        let (count, wall, tasks, items) = same.fold((0, 0.0, 0, 0), |(c, w, t, i), s| {
            (c + 1, w + s.wall_seconds, t + s.tasks, i + s.items)
        });
        println!("stage {name:<16} x{count:<3} {wall:>8.3} s  {tasks:>5} tasks  {items:>9} items");
    }
    let (phase_a, _, phase_a_items) = stage_totals(stages, "phase_a");
    let (phase_b, _, phase_b_items) = stage_totals(stages, "phase_b");
    let (_, tasks, _) = stage_totals(stages, "");
    out.metric("scenario.phase_a_s", phase_a, "s");
    out.metric(
        "scenario.calibrate_s",
        stage_totals(stages, "calibrate").0,
        "s",
    );
    out.metric("scenario.phase_b_s", phase_b, "s");
    out.metric(
        "scenario.assemble_s",
        stage_totals(stages, "assemble").0,
        "s",
    );
    out.metric("scenario.figures_s", figures.wall, "s");
    let num_days = dataset.clock.num_days();
    let t0 = Instant::now();
    let medians = dataset
        .kpi
        .daily_medians_multi(&cellscope_core::KpiField::ALL, num_days, |_| true);
    out.metric("core.daily_medians_s", t0.elapsed().as_secs_f64(), "s");
    std::hint::black_box(medians);
    out.metric("exec.phase_a_items", phase_a_items as f64, "count");
    out.metric("exec.phase_b_items", phase_b_items as f64, "count");
    out.metric("exec.tasks", tasks as f64, "count");
}

fn traced(
    config: &ScenarioConfig,
    world: &World,
    plan: Option<&ShardPlan>,
    build: Sample,
    out: &mut Outcome,
) -> Result<(), String> {
    out.attempted = 1;
    let r = round(config, world, plan)?;
    let digest = check_outputs(out, &r)?;
    println!("dataset digest {digest:016x}");
    let mut total = r.study;
    total += r.figures_time;
    out.metric("scenario.world_build_s", build.wall, "s");
    stage_metrics(out, &r.stages, &r.dataset, r.figures_time);
    out.metric(
        "exec.busy_share",
        total.cpu / (total.wall * THREADS as f64),
        "share",
    );
    out.metrics.extend(layers::kernel_tour(config, world)?);
    out.metric("traced.run_s", total.wall, "s");
    Ok(())
}
