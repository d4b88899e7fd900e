//! The `replay` workload: export a study's feeds, convert them to
//! `.csb`, then replay the JSONL set and the `.csb` set through the
//! analysis.

use crate::checks::{check_csb_pass, check_report, check_same_dataset, check_same_events};
use crate::study::stage_metrics;
use crate::sys::{dir_bytes, peak_rss_mb, sync_dir, timed, Sample};
use crate::{draw, for_rounds, layers, median, Args, Outcome, FIXTURE_SEED, THREADS};
use cellscope_exec::Executor;
use cellscope_scenario::feedfmt::events_bin_name;
use cellscope_scenario::replay::{events_file_name, export_feeds_in, replay_study_with};
use cellscope_scenario::{
    convert_feed_dir, figures, run_study_with, ReplayConfig, ReplayOptions, ReplayReport,
    ScenarioConfig, StudyDataset, World,
};
use cellscope_signaling::columnar::{decode_events_into, split_segments, DecodeScratch};
use cellscope_signaling::{EventReader, FeedBounds, SignalingEvent};
use cellscope_time::Date;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

/// Subscribers of the replayed study.
pub const SUBSCRIBERS: u32 = 250;

/// Timed `.csb` passes after each JSONL pass.
pub const CSB_PASSES: usize = 10;

/// The `tiny` geography over Feb 1 – Mar 15 2020 at [`SUBSCRIBERS`]
/// subscribers on [`THREADS`] threads, drawn by `seed` on the fixed
/// fixture.
pub fn config(seed: u64) -> ScenarioConfig {
    let mut config = draw(
        ScenarioConfig::tiny(FIXTURE_SEED),
        &ScenarioConfig::tiny(seed),
    );
    config.population.num_subscribers = SUBSCRIBERS;
    config.study_end = Date::ymd(2020, 3, 15);
    config.threads = THREADS;
    config
}

struct Feeds<'a> {
    config: &'a ScenarioConfig,
    world: &'a World,
    reference: &'a StudyDataset,
    csb_dir: &'a Path,
    csb_bytes: u64,
}

impl Feeds<'_> {
    /// Replay `dir` once; checks the dataset and the report.
    fn pass(
        &self,
        out: &mut Outcome,
        dir: &Path,
        options: ReplayOptions,
    ) -> Option<(ReplayReport, Sample)> {
        let rcfg = ReplayConfig {
            threads: THREADS,
            options,
            ..ReplayConfig::default()
        };
        let mut exec = Executor::new(THREADS);
        out.attempted += 1;
        let (result, sample) =
            timed(|| replay_study_with(self.config, self.world, dir, &rcfg, &mut exec));
        match result {
            Ok((dataset, report)) => {
                out.check(check_same_dataset(self.reference, &dataset));
                out.check(check_report(&report));
                Some((report, sample))
            }
            Err(e) => {
                eprintln!("replay of {} failed: {e}", dir.display());
                out.failed += 1;
                None
            }
        }
    }

    /// A streamed `.csb` pass, checked against the JSONL pass's report.
    fn csb_pass(&self, out: &mut Outcome, jsonl: &ReplayReport) -> Option<Sample> {
        let (report, sample) = self.pass(out, self.csb_dir, ReplayOptions::streamed())?;
        out.check(check_csb_pass(jsonl, &report, self.csb_bytes));
        Some(sample)
    }
}

/// One day's events, parsed from the JSONL feed and decoded from the
/// `.csb` feed.
fn day_events(
    jsonl_dir: &Path,
    csb_dir: &Path,
    day: u16,
    bounds: FeedBounds,
) -> Result<(Vec<SignalingEvent>, Vec<SignalingEvent>), String> {
    let file =
        std::fs::File::open(jsonl_dir.join(events_file_name(day))).map_err(|e| e.to_string())?;
    let parsed = EventReader::new(BufReader::new(file))
        .with_bounds(bounds)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let bytes = std::fs::read(csb_dir.join(events_bin_name(day))).map_err(|e| e.to_string())?;
    let (mut decoded, mut segment, mut scratch) =
        (Vec::new(), Vec::new(), DecodeScratch::default());
    for seg in split_segments(&bytes) {
        decode_events_into(seg.map_err(|e| e.to_string())?, &mut scratch, &mut segment)
            .map_err(|e| e.to_string())?;
        decoded.append(&mut segment);
    }
    Ok((parsed, decoded))
}

pub fn run(args: &Args, scratch: &Path, start: Instant) -> Result<Outcome, String> {
    let config = config(args.seed);
    let (world, build) = timed(|| World::build(&config));
    let jsonl_dir = scratch.join("jsonl");
    let csb_dir = scratch.join("csb");
    let (exported, export) = timed(|| export_feeds_in(&config, &world, &jsonl_dir));
    exported.map_err(|e| format!("feed export: {e}"))?;
    let (converted, convert) = timed(|| convert_feed_dir(&jsonl_dir, &csb_dir));
    converted.map_err(|e| format!("feed conversion: {e}"))?;
    for dir in [&jsonl_dir, &csb_dir] {
        sync_dir(dir).map_err(|e| format!("syncing {}: {e}", dir.display()))?;
    }
    let setup_s = start.elapsed().as_secs_f64();
    let jsonl_bytes = dir_bytes(&jsonl_dir, ".jsonl").map_err(|e| e.to_string())?;
    let csb_bytes = dir_bytes(&csb_dir, ".csb").map_err(|e| e.to_string())?;
    println!(
        "workload replay: {} subscribers x {} days, {} threads, seed {}; feeds {} B JSONL, {} B .csb",
        SUBSCRIBERS,
        world.num_days(),
        THREADS,
        args.seed,
        jsonl_bytes,
        csb_bytes
    );

    let mut exec = Executor::new(THREADS);
    let reference =
        run_study_with(&config, &world, &mut exec).map_err(|e| format!("in-memory run: {e}"))?;
    let stages = exec.take_metrics("reference");
    let feeds = Feeds {
        config: &config,
        world: &world,
        reference: &reference,
        csb_dir: &csb_dir,
        csb_bytes,
    };

    let mut out = Outcome::default();
    // Untimed warm-up: page in the `.csb` files and the code paths.
    feeds.pass(&mut out, &csb_dir, ReplayOptions::streamed());

    let mut rounds: Vec<Sample> = Vec::new();
    let mut first_round_rss = None;
    let (mut jsonl_walls, mut csb_walls) = (Vec::new(), Vec::new());
    let mut one_round = |out: &mut Outcome| {
        let Some((jsonl, mut sample)) = feeds.pass(out, &jsonl_dir, ReplayOptions::default())
        else {
            out.attempted += CSB_PASSES as u64;
            out.failed += CSB_PASSES as u64;
            return;
        };
        jsonl_walls.push(sample.wall);
        for _ in 0..CSB_PASSES {
            if let Some(s) = feeds.csb_pass(out, &jsonl) {
                csb_walls.push(s.wall);
                sample += s;
            }
        }
        rounds.push(sample);
        first_round_rss.get_or_insert_with(peak_rss_mb);
    };
    if args.trace {
        one_round(&mut out);
    } else {
        for_rounds(args.seconds, || one_round(&mut out));
    }
    if rounds.is_empty() {
        return Err("every JSONL pass failed".into());
    }

    let bounds = FeedBounds {
        num_days: world.num_days() as u16,
        num_cells: world.topo.cells().len() as u32,
    };
    let day = layers::tour_days(&world)[0];
    let (parsed, decoded) = day_events(&jsonl_dir, &csb_dir, day, bounds)?;
    out.check(check_same_events(&parsed, &decoded));

    let walls: Vec<f64> = rounds.iter().map(|s| s.wall).collect();
    let cpus: Vec<f64> = rounds.iter().map(|s| s.cpu).collect();
    println!("rounds {}: run_s {walls:?} cpu_s {cpus:?}", rounds.len());
    println!(
        "jsonl_replay_s {:.4} (median of {})",
        median(&jsonl_walls),
        jsonl_walls.len()
    );
    println!(
        "csb_replay_s {:.4} (median of {})",
        median(&csb_walls),
        csb_walls.len()
    );
    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("run_s", median(&walls), "s");
        out.metric("cpu_s", median(&cpus), "s");
        out.metric(
            "peak_rss_mb",
            first_round_rss.unwrap_or_else(peak_rss_mb),
            "MB",
        );
        return Ok(out);
    }

    // Replay-only layers, printed for reading; the per-layer result
    // line holds only what every workload measures.
    let round = rounds[0];
    let jsonl_report = feeds.pass(&mut out, &jsonl_dir, ReplayOptions::default());
    let streamed = feeds.pass(&mut out, &csb_dir, ReplayOptions::streamed());
    let mapped = feeds.pass(&mut out, &csb_dir, ReplayOptions::mapped());
    for (name, value) in [
        ("scenario.export_s", export.wall),
        ("scenario.convert_s", convert.wall),
        ("scenario.jsonl_bytes", jsonl_bytes as f64),
        ("scenario.csb_bytes", csb_bytes as f64),
        (
            "scenario.jsonl_replay_s",
            jsonl_report.as_ref().map_or(f64::NAN, |r| r.1.wall),
        ),
        (
            "scenario.replay_streamed_pass_s",
            streamed.as_ref().map_or(f64::NAN, |r| r.1.wall),
        ),
        (
            "scenario.replay_mapped_pass_s",
            mapped.as_ref().map_or(f64::NAN, |r| r.1.wall),
        ),
        (
            "scenario.bytes_streamed",
            streamed
                .as_ref()
                .map_or(f64::NAN, |r| r.0.bytes_streamed as f64),
        ),
        (
            "scenario.bytes_mapped",
            mapped
                .as_ref()
                .map_or(f64::NAN, |r| r.0.bytes_mapped as f64),
        ),
    ] {
        println!("layer {name} {value}");
    }

    out.metric("scenario.world_build_s", build.wall, "s");
    let (figs, figures_time) = timed(|| figures::build_all(&reference, THREADS));
    figs.map_err(|e| e.to_string())?;
    stage_metrics(&mut out, &stages, &reference, figures_time);
    out.metric(
        "exec.busy_share",
        round.cpu / (round.wall * THREADS as f64),
        "share",
    );
    out.metrics.extend(layers::kernel_tour(&config, &world)?);
    out.metric("traced.run_s", round.wall, "s");
    Ok(out)
}
