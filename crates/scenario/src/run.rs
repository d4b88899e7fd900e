//! The two-phase study runner.
//!
//! **Phase A** (parallel over fixed day blocks) replays every
//! subscriber-day through the paper's mobility pipeline: trajectory →
//! signaling events → dwell reconstruction → top-20 towers →
//! entropy/gyration → group accumulators, plus February night dwell for
//! home detection and daily county-presence masks for the mobility
//! matrix.
//!
//! **Phase B** (parallel over days) replays the same days through the
//! traffic pipeline: presence × demand → per-cell hourly offered load →
//! radio scheduler → per-cell-day KPI medians, plus the national voice
//! volume offered to the interconnect.
//!
//! A final sequential pass steps the interconnect state machine through
//! the days (its operations response is stateful) and adds its daily DL
//! loss to every cell-day voice record.
//!
//! # Determinism by day ownership
//!
//! Both phases partition work into **fixed day blocks** whose size does
//! not depend on the thread count and run them on the
//! [`cellscope_exec`] execution layer, which assigns tasks to workers
//! round-robin and merges results back in task order. Every per-(group,
//! day) accumulator bucket is therefore filled entirely by the one
//! worker that owns the day, with users ingested in subscriber order;
//! merging partials only ever adds zero contributions from non-owning
//! blocks. The result: studies are **bit-identical across thread
//! counts**, and identical to a [`crate::replay`] run that streams the
//! same days back from serialized feeds.
//!
//! A panicking worker no longer aborts the process: the execution layer
//! captures it and [`run_study`] returns a structured
//! [`ExecError`](cellscope_exec::ExecError) naming the stage and task.

use crate::config::ScenarioConfig;
use crate::dataset::{HomeValidationPoint, MetricGroup, StudyDataset, UserInfo};
use crate::shard::MaskStore;
use crate::world::World;
use cellscope_core::kpi_stats::{CellDayMetrics, HourlyKpiSample};
use cellscope_core::study::{MobilityStudy, StudyConfig};
use cellscope_core::{top_n_towers_into, DailyGroupMean, KpiTable, MobilityMatrix, TowerDwell};
use cellscope_exec::{ExecError, Executor, TaskCtx};
use cellscope_geo::County;
use cellscope_mobility::{DayTrajectory, TrajectoryGenerator};
use cellscope_radio::{
    CellHourKpi, Interconnect, InterconnectConfig, Rat, Scheduler, SchedulerConfig,
};
use cellscope_signaling::{
    reconstruct_dwell_into, DwellRecord, EventGenerator, SignalingEvent,
};
use cellscope_time::{Date, DayBin};
use cellscope_traffic::{DayLoadGrid, DemandModel, LoadGenerator, ThrottlePolicy, VoiceModel};

/// Days per phase-A work block. Fixed (never derived from the thread
/// count) so each accumulator bucket has exactly one owning block
/// regardless of parallelism — the property the determinism and
/// replay-equivalence guarantees rest on.
pub(crate) const PHASE_A_BLOCK_DAYS: usize = 4;

/// Days per phase-B work block; fixed for the same reason as
/// [`PHASE_A_BLOCK_DAYS`].
pub(crate) const PHASE_B_BLOCK_DAYS: usize = 4;

/// Run the full study for a configuration.
///
/// A worker panic inside either parallel phase is captured by the
/// execution layer and returned as an [`ExecError`] naming the stage
/// and task; the process neither aborts nor hangs.
pub fn run_study(config: &ScenarioConfig) -> Result<StudyDataset, ExecError> {
    let world = World::build(config);
    run_study_in(config, &world)
}

/// Run the study over a pre-built world (lets callers keep the world
/// for further interrogation).
pub fn run_study_in(
    config: &ScenarioConfig,
    world: &World,
) -> Result<StudyDataset, ExecError> {
    let mut exec = Executor::new(config.threads);
    run_study_with(config, world, &mut exec)
}

/// [`run_study_in`] over a caller-supplied [`Executor`] — the executor
/// collects per-stage [`RunMetrics`](cellscope_exec::RunMetrics)
/// (`phase_a`, `calibrate`, `phase_b`, `assemble`) the caller can drain
/// with [`Executor::take_metrics`] after the run.
pub fn run_study_with(
    config: &ScenarioConfig,
    world: &World,
    exec: &mut Executor,
) -> Result<StudyDataset, ExecError> {
    let phase_a = run_phase_a(config, world, exec)?;
    let scale = exec.time_stage("calibrate", || calibrate_traffic_scale(config, world));
    let (kpi, voice_daily) = run_phase_b(config, world, exec, scale)?;
    Ok(exec
        .time_stage("assemble", || {
            assemble(config, world, phase_a, kpi, voice_daily)
        })
        .expect("in-memory mask store cannot fail"))
}

/// Phase A output, merged over all day blocks.
pub(crate) struct PhaseA {
    /// The paper's mobility methodology, driven exactly as a real-data
    /// consumer would drive it (see [`cellscope_core::study`]).
    pub(crate) study: MobilityStudy<MetricGroup>,
    pub(crate) gyration_by_bin: DailyGroupMean<DayBin>,
    /// County-presence bitmask per (subscriber, day), county-index bit
    /// set when the user's top-20 towers touch that county. In-memory
    /// runs hold the full `[subscriber * num_days + day]` matrix; the
    /// sharded large-scale path may have spilled it to disk day-major.
    pub(crate) county_masks: MaskStore,
    pub(crate) rat_minutes: [u64; 3],
}

/// Phase A partial for one day block.
pub(crate) struct PhaseABlock {
    /// The block's days, ascending.
    pub(crate) days: Vec<u16>,
    pub(crate) study: MobilityStudy<MetricGroup>,
    pub(crate) gyration_by_bin: DailyGroupMean<DayBin>,
    /// `[local_day * num_subscribers + subscriber]`.
    pub(crate) county_masks: Vec<u32>,
    pub(crate) rat_minutes: [u64; 3],
}

impl PhaseABlock {
    pub(crate) fn new(num_days: usize, days: Vec<u16>, num_subs: usize) -> PhaseABlock {
        PhaseABlock {
            county_masks: vec![0u32; days.len() * num_subs],
            days,
            study: MobilityStudy::new(StudyConfig::default(), num_days),
            gyration_by_bin: DailyGroupMean::new(num_days),
            rat_minutes: [0; 3],
        }
    }
}

/// The feed-side study membership: per subscriber, `Some((anon_id,
/// aggregation groups))` when Section 2.3's filter (smartphone TAC +
/// native PLMN, both decided from what the probe records expose) keeps
/// the user.
pub(crate) struct StudyRoster {
    pub(crate) members: Vec<Option<(u64, [MetricGroup; 3])>>,
}

pub(crate) fn build_roster(config: &ScenarioConfig, world: &World) -> StudyRoster {
    let eventgen = EventGenerator::new(
        &world.topo,
        &world.catalog,
        world.anonymizer,
        config.events,
    );
    let members = world
        .population
        .subscribers()
        .iter()
        .map(|sub| {
            let in_study = world.catalog.is_smartphone(eventgen.tac_of(sub))
                && eventgen.plmn_of(sub)
                    == (
                        cellscope_signaling::event::UK_MCC,
                        cellscope_signaling::event::HOME_MNC,
                    );
            if !in_study {
                return None;
            }
            let home_zone = world.geo.zone(sub.home_zone);
            Some((
                world.anonymizer.anon_id(sub.id.0),
                [
                    MetricGroup::National,
                    MetricGroup::County(home_zone.county),
                    MetricGroup::Cluster(home_zone.cluster),
                ],
            ))
        })
        .collect();
    StudyRoster { members }
}

/// One site-resolved dwell segment of a user-day — the common currency
/// of the in-memory and feed-replay ingestion paths.
pub(crate) struct SiteDwell {
    pub(crate) bin: DayBin,
    pub(crate) site: u32,
    pub(crate) minutes: u16,
    pub(crate) rat: Rat,
}

/// The per-worker scratch arena of the subscriber-day hot path. One
/// instance lives per worker (block task or replay thread) and owns
/// every buffer the pipeline touches per user-day — trajectory, event
/// stream, reconstructed dwell, tower aggregation, top-N selection —
/// so the steady-state loop allocates nothing: each buffer is cleared
/// and refilled in place once its high-water capacity is reached.
#[derive(Default)]
pub(crate) struct IngestScratch {
    /// Caller fills this with the user-day's segments before calling
    /// [`ingest_user_day`].
    pub(crate) segments: Vec<SiteDwell>,
    /// Trajectory buffer for [`TrajectoryGenerator::generate_into`].
    pub(crate) traj: DayTrajectory,
    /// Event buffer for [`EventGenerator::generate_into`].
    pub(crate) events: Vec<SignalingEvent>,
    /// Dwell buffer for [`reconstruct_dwell_into`].
    pub(crate) dwell_records: Vec<DwellRecord>,
    site_minutes: Vec<(u32, u16, u16)>, // (site, mins, night mins)
    dwell: Vec<TowerDwell>,
    bin_dwell: Vec<TowerDwell>,
    /// Night-window (tower, minutes) pairs of the last derived
    /// user-day — left in place for the caller to apply (or ship).
    pub(crate) night_pairs: Vec<(u32, u16)>,
    /// Top-N output of the study ingest and the county-mask selection.
    top: Vec<TowerDwell>,
}

/// The order-free half of one user-day ingest: every metric the phase-A
/// accumulators need, computed from the segments alone, with no
/// accumulator touched. The night-window pairs stay in
/// `scratch.night_pairs` (order preserved) — the one piece whose apply
/// order matters but whose derivation does not.
///
/// Splitting derivation from application is what makes the sharded
/// large-scale path possible: shards derive these records in parallel,
/// and a sequential fold applies them in canonical (day, subscriber)
/// order, reproducing the unsharded accumulator sequences bit for bit.
pub(crate) struct DerivedMetrics {
    pub(crate) entropy: Option<f64>,
    pub(crate) gyration: Option<f64>,
    /// Per-bin gyration in [`DayBin::ALL`] order.
    pub(crate) bin_gyration: [Option<f64>; DayBin::ALL.len()],
    pub(crate) county_mask: u32,
    pub(crate) rat_minutes: [u64; 3],
}

/// Towers behind the county-presence mask: the paper's top-20.
const MASK_TOP_N: usize = 20;

/// Derive one user-day's metrics from `scratch.segments`. `top_n` is
/// the study's configured top-N tower count (the metrics half);
/// the county mask always uses the paper's fixed top-20.
pub(crate) fn derive_user_day(
    world: &World,
    scratch: &mut IngestScratch,
    feb_night: bool,
    top_n: usize,
) -> DerivedMetrics {
    let mut rat_minutes = [0u64; 3];
    scratch.site_minutes.clear();
    for s in &scratch.segments {
        rat_minutes[s.rat as usize] += s.minutes as u64;
        let night = if s.bin.is_night_window() { s.minutes } else { 0 };
        push_site_minutes(&mut scratch.site_minutes, s.site, s.minutes, night);
    }

    // Tower dwell -> the paper's methodology (top-N filter, entropy,
    // gyration) — the exact arithmetic of `MobilityStudy::ingest_with`.
    scratch.dwell.clear();
    scratch
        .dwell
        .extend(scratch.site_minutes.iter().map(|&(site, mins, _)| TowerDwell {
            tower: site,
            location: world.topo.site(cellscope_radio::SiteId(site)).location,
            seconds: mins as f64 * 60.0,
        }));
    scratch.night_pairs.clear();
    if feb_night {
        scratch.night_pairs.extend(
            scratch
                .site_minutes
                .iter()
                .filter(|&&(_, _, night)| night > 0)
                .map(|&(site, _, night)| (site, night)),
        );
    }
    top_n_towers_into(&scratch.dwell, top_n, &mut scratch.top);
    let entropy = cellscope_core::mobility_entropy(&scratch.top);
    let gyration = cellscope_core::radius_of_gyration(&scratch.top);

    // Per-bin gyration (Section 2.3 computes the metrics over the six
    // 4-hour bins too) — national aggregate only.
    let mut bin_gyration = [None; DayBin::ALL.len()];
    for (slot, bin) in bin_gyration.iter_mut().zip(DayBin::ALL) {
        scratch.bin_dwell.clear();
        scratch.bin_dwell.extend(
            scratch
                .segments
                .iter()
                .filter(|s| s.bin == bin)
                .map(|s| TowerDwell {
                    tower: s.site,
                    location: world.topo.site(cellscope_radio::SiteId(s.site)).location,
                    seconds: s.minutes as f64 * 60.0,
                }),
        );
        *slot = cellscope_core::radius_of_gyration(&scratch.bin_dwell);
    }

    // County presence mask (for the mobility matrix), over the paper's
    // top-20 tower set. A study configured with another top-N selects
    // that set again; at top-20 the metrics' selection already is it.
    if top_n != MASK_TOP_N {
        top_n_towers_into(&scratch.dwell, MASK_TOP_N, &mut scratch.top);
    }
    let mut mask = 0u32;
    for t in &scratch.top {
        let zone = world.topo.site(cellscope_radio::SiteId(t.tower)).zone;
        mask |= 1 << world.geo.zone(zone).county.index();
    }

    DerivedMetrics {
        entropy,
        gyration,
        bin_gyration,
        county_mask: mask,
        rat_minutes,
    }
}

/// Fold one user-day (its segments sitting in `scratch.segments`) into
/// a phase-A block: RAT minutes, tower dwell → the study object
/// (top-20 filter, entropy, gyration, night log), per-bin gyration, and
/// the county-presence mask. Derive + apply in one step — the shape the
/// in-memory and feed-replay paths use.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ingest_user_day(
    world: &World,
    out: &mut PhaseABlock,
    scratch: &mut IngestScratch,
    sub_idx: usize,
    num_subs: usize,
    local_day: usize,
    day: u16,
    feb_night: bool,
    anon: u64,
    groups: &[MetricGroup; 3],
) {
    let top_n = out.study.config().top_n_towers;
    let d = derive_user_day(world, scratch, feb_night, top_n);
    for (a, b) in out.rat_minutes.iter_mut().zip(d.rat_minutes) {
        *a += b;
    }
    out.study.apply_derived(
        anon,
        day,
        d.entropy,
        d.gyration,
        &scratch.night_pairs,
        groups,
    );
    for (bin, g) in DayBin::ALL.iter().zip(d.bin_gyration) {
        if let Some(g) = g {
            out.gyration_by_bin.add(*bin, day, g);
        }
    }
    out.county_masks[local_day * num_subs + sub_idx] = d.county_mask;
}

fn run_phase_a(
    config: &ScenarioConfig,
    world: &World,
    exec: &mut Executor,
) -> Result<PhaseA, ExecError> {
    let roster = build_roster(config, world);
    let days: Vec<u16> = world.clock.days().collect();
    let blocks: Vec<&[u16]> = days.chunks(PHASE_A_BLOCK_DAYS).collect();

    let partials = exec.run_stage("phase_a", blocks.len(), |i, ctx| {
        phase_a_block(config, world, &roster, blocks[i], ctx)
    })?;
    Ok(merge_phase_a(
        world.num_days(),
        world.population.len(),
        partials,
    ))
}

/// Merge phase-A block partials, **in block order**, into the global
/// phase-A output. Shared by the in-memory runner and the feed-replay
/// engine (whose blocks are single days).
pub(crate) fn merge_phase_a(
    num_days: usize,
    num_subs: usize,
    partials: impl IntoIterator<Item = PhaseABlock>,
) -> PhaseA {
    let mut study = MobilityStudy::new(StudyConfig::default(), num_days);
    study.finish(); // empty shell, ready to absorb finished partials
    let mut masks = vec![0u32; num_subs * num_days];
    let mut merged = PhaseA {
        study,
        gyration_by_bin: DailyGroupMean::new(num_days),
        county_masks: MaskStore::Mem(Vec::new()),
        rat_minutes: [0; 3],
    };
    for mut p in partials {
        p.study.finish();
        merged.study.merge(p.study);
        merged.gyration_by_bin.merge(p.gyration_by_bin);
        for (local_day, &day) in p.days.iter().enumerate() {
            for sub in 0..num_subs {
                let mask = p.county_masks[local_day * num_subs + sub];
                if mask != 0 {
                    masks[sub * num_days + day as usize] = mask;
                }
            }
        }
        for (a, b) in merged.rat_minutes.iter_mut().zip(p.rat_minutes) {
            *a += b;
        }
    }
    merged.county_masks = MaskStore::Mem(masks);
    merged
}

pub(crate) fn phase_a_block(
    config: &ScenarioConfig,
    world: &World,
    roster: &StudyRoster,
    block: &[u16],
    ctx: &mut TaskCtx,
) -> PhaseABlock {
    let mut trajgen =
        TrajectoryGenerator::new(&world.geo, &world.behavior, world.clock, config.seed);
    let mut eventgen = EventGenerator::new(
        &world.topo,
        &world.catalog,
        world.anonymizer,
        config.events,
    );
    let feb_set = february_set(world);
    let subs = world.population.subscribers();
    let num_subs = subs.len();

    let mut out = PhaseABlock::new(world.num_days(), block.to_vec(), num_subs);
    let mut scratch = IngestScratch::default();
    ctx.count("days", block.len() as u64);

    // Day-major, subscriber order within each day — the exact order a
    // replay of the per-day feeds ingests in.
    for (local_day, &day) in block.iter().enumerate() {
        let feb_night = feb_set[day as usize];
        for (sub_idx, sub) in subs.iter().enumerate() {
            let Some((anon, groups)) = roster.members[sub_idx] else {
                continue;
            };
            trajgen.generate_into(sub, day, &mut scratch.traj);
            scratch.segments.clear();
            if config.use_event_reconstruction {
                eventgen.generate_into(sub, &scratch.traj, &mut scratch.events);
                if scratch.events.is_empty() {
                    continue; // device unreachable today
                }
                reconstruct_dwell_into(&scratch.events, &mut scratch.dwell_records);
                for rec in &scratch.dwell_records {
                    let cell = world.topo.cell(rec.cell);
                    scratch.segments.push(SiteDwell {
                        bin: rec.bin,
                        site: cell.site.0,
                        minutes: rec.minutes,
                        rat: cell.rat,
                    });
                }
            } else {
                if scratch.traj.visits.is_empty() {
                    continue;
                }
                scratch
                    .segments
                    .extend(scratch.traj.visits.iter().map(|v| SiteDwell {
                        bin: v.bin,
                        site: v.site.0,
                        minutes: v.minutes,
                        rat: Rat::G4,
                    }));
            }
            ingest_user_day(
                world, &mut out, &mut scratch, sub_idx, num_subs, local_day, day,
                feb_night, anon, &groups,
            );
            ctx.add_items(1); // one user-day folded in
        }
    }
    out
}

/// Per-day flag: is this day inside the home-detection observation
/// window (February)?
pub(crate) fn february_set(world: &World) -> Vec<bool> {
    let mut v = vec![false; world.num_days()];
    for d in world.clock.february_days() {
        v[d as usize] = true;
    }
    v
}

fn push_site_minutes(acc: &mut Vec<(u32, u16, u16)>, site: u32, minutes: u16, night: u16) {
    for entry in acc.iter_mut() {
        if entry.0 == site {
            entry.1 += minutes;
            entry.2 += night;
            return;
        }
    }
    acc.push((site, minutes, night));
}

/// Determine how many real subscribers one synthetic subscriber stands
/// for: replay one baseline weekday at scale 1 and match the median
/// peak-hour downlink utilization of used cells to the configured
/// target. Without this, a subsampled population would leave realistic
/// cell capacities idle and flatten every load-derived KPI.
pub(crate) fn calibrate_traffic_scale(config: &ScenarioConfig, world: &World) -> f64 {
    // The paper's baseline weekday is Tuesday Feb 25 2020; a window
    // that does not contain it calibrates on its first Tuesday (any
    // pre-lockdown weekday works — the calibration replays one day at
    // scale 1), falling back to day 0 for sub-week windows.
    let day = world
        .clock
        .day_of(cellscope_time::Date::ymd(2020, 2, 25))
        .or_else(|| {
            world
                .clock
                .days()
                .find(|&d| world.clock.weekday(d) == cellscope_time::Weekday::Tuesday)
        })
        .unwrap_or(0);
    let date = world.clock.date(day);
    let mut trajgen =
        TrajectoryGenerator::new(&world.geo, &world.behavior, world.clock, config.seed);
    let loadgen = load_generator(config, 1.0);
    let mut grid = DayLoadGrid::new(world.topo.cells().len());
    let mut traj = DayTrajectory::default();
    for sub in world.population.subscribers() {
        trajgen.generate_into(sub, day, &mut traj);
        loadgen.accumulate(sub, &traj, date, 0.0, 0.0, &world.topo, &mut grid);
    }
    let usable = SchedulerConfig::default().usable_capacity_fraction;
    let mut peak_rhos: Vec<f64> = Vec::new();
    for cell in world.topo.cells() {
        if cell.rat != Rat::G4 || !cell.is_active(day) {
            continue;
        }
        let cap_mb = cell.capacity.dl_mb_per_hour() * usable;
        let mut peak = 0.0f64;
        let mut used = false;
        for hour in 0..24 {
            let load = grid.get(cell.id.index(), hour);
            if load.connected_users > 0.0 {
                used = true;
            }
            peak = peak.max((load.offered_dl_mb + load.voice.volume_mb) / cap_mb);
        }
        if used && peak > 0.0 {
            peak_rhos.push(peak);
        }
    }
    let median = cellscope_core::stats::median(&peak_rhos).unwrap_or(1.0);
    if median <= 0.0 {
        1.0
    } else {
        config.target_peak_utilization / median
    }
}

/// The load generator for a configuration: all policy-reactive traffic
/// models follow the scenario's schedule. `scale` is the population
/// weight (1.0 = raw per-subscriber loads; the runner calibrates it via
/// [`run_study_in`]'s calibration pass).
pub fn load_generator(config: &ScenarioConfig, scale: f64) -> LoadGenerator {
    LoadGenerator {
        demand: DemandModel {
            schedule: config.schedule.clone(),
            ..DemandModel::default()
        },
        voice: VoiceModel {
            schedule: config.schedule.clone(),
            ..VoiceModel::default()
        },
        // Content providers reduced quality as venues closed (the EU
        // request of Mar 19, the day before the closures). A schedule
        // with no throttle date means providers never degrade.
        throttle: {
            let mut throttle = ThrottlePolicy {
                effective_from: config
                    .schedule
                    .throttle_from
                    .unwrap_or(Date::ymd(9999, 1, 1)),
                ..ThrottlePolicy::default()
            };
            if !config.content_throttling {
                throttle.throttled_mbps = throttle.baseline_mbps;
            }
            throttle
        },
        scale,
    }
}

fn run_phase_b(
    config: &ScenarioConfig,
    world: &World,
    exec: &mut Executor,
    scale: f64,
) -> Result<(KpiTable, Vec<f64>), ExecError> {
    let num_days = world.num_days();
    let days: Vec<u16> = world.clock.days().collect();
    let blocks: Vec<&[u16]> = days.chunks(PHASE_B_BLOCK_DAYS).collect();

    // Fixed day blocks merged in block order: blocks are consecutive
    // day ranges, so the merged KPI record order is day-major exactly
    // as a sequential pass would produce it, for any thread count.
    let partials = exec.run_stage("phase_b", blocks.len(), |i, ctx| {
        phase_b_chunk(config, world, blocks[i], scale, ctx)
    })?;

    let mut kpi = KpiTable::new();
    let mut voice_daily = vec![0.0; num_days];
    for (table, voices) in partials {
        kpi.merge(table);
        for (day, v) in voices {
            voice_daily[day as usize] = v;
        }
    }
    Ok((kpi, voice_daily))
}

pub(crate) fn phase_b_chunk(
    config: &ScenarioConfig,
    world: &World,
    days: &[u16],
    scale: f64,
    ctx: &mut TaskCtx,
) -> (KpiTable, Vec<(u16, f64)>) {
    let mut trajgen =
        TrajectoryGenerator::new(&world.geo, &world.behavior, world.clock, config.seed);
    let loadgen = load_generator(config, scale);
    let scheduler = Scheduler::new(SchedulerConfig::default());
    let mut grid = DayLoadGrid::new(world.topo.cells().len());
    let mut kpi = KpiTable::new();
    let mut voices = Vec::with_capacity(days.len());
    let mut traj_buf = DayTrajectory::default();
    let mut hours_buf: Vec<HourlyKpiSample> = Vec::with_capacity(24);

    for &day in days {
        let voice = simulate_day_kpi(
            world,
            &mut trajgen,
            &loadgen,
            &scheduler,
            &mut grid,
            day,
            &mut traj_buf,
            &mut hours_buf,
            |cell_id, hours| {
                if let Some(rec) = CellDayMetrics::from_hourly(cell_id, day, hours) {
                    kpi.push(rec);
                }
            },
        );
        voices.push((day, voice));
    }
    ctx.count("days", days.len() as u64);
    ctx.add_items(kpi.len() as u64); // cell-days produced
    (kpi, voices)
}

/// Simulate one day of the traffic pipeline: presence × demand into
/// `grid`, then the radio scheduler per active 4G cell. Calls `sink`
/// with each reporting cell's 24 post-scheduler hourly samples (cells
/// nobody camped on all day are coverage artifacts of the population
/// subsample; real studies only see reporting cells with subscribers)
/// and returns the day's off-net voice volume. Shared by the phase-B
/// runner and the feed exporter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_day_kpi(
    world: &World,
    trajgen: &mut TrajectoryGenerator<'_>,
    loadgen: &LoadGenerator,
    scheduler: &Scheduler,
    grid: &mut DayLoadGrid,
    day: u16,
    traj_buf: &mut DayTrajectory,
    hours_buf: &mut Vec<HourlyKpiSample>,
    sink: impl FnMut(u32, &[HourlyKpiSample]),
) -> f64 {
    let date = world.clock.date(day);
    let schedule = world.behavior.schedule();
    let intensity = schedule.intensity(date);
    // Ratchet: at-home WiFi settling does not unwind once a full
    // confinement phase has started.
    let confinement = schedule.confinement(date);
    grid.clear();
    for sub in world.population.subscribers() {
        trajgen.generate_into(sub, day, traj_buf);
        loadgen.accumulate(sub, traj_buf, date, intensity, confinement, &world.topo, grid);
    }
    let voice = loadgen.off_net_voice_mb(grid);
    day_kpi_from_grid(world, scheduler, grid, day, hours_buf, sink);
    voice
}

/// The scheduler half of one traffic day: run the radio scheduler over
/// an already-accumulated load grid and emit each reporting cell's 24
/// post-scheduler hourly samples. Split from [`simulate_day_kpi`] so
/// the sharded path — which accumulates the grid from shard-derived
/// trajectories — shares the exact per-cell pass.
pub(crate) fn day_kpi_from_grid(
    world: &World,
    scheduler: &Scheduler,
    grid: &DayLoadGrid,
    day: u16,
    hours_buf: &mut Vec<HourlyKpiSample>,
    sink: impl FnMut(u32, &[HourlyKpiSample]),
) {
    let num_cells = world.topo.cells().len();
    day_kpi_from_grid_range(world, scheduler, grid, day, 0, num_cells, hours_buf, sink);
}

/// [`day_kpi_from_grid`] restricted to the topology's cells
/// `lo..hi` (slice order). Each cell's samples depend only on its own
/// grid rows, so disjoint ranges compute independently; running the
/// ranges in ascending order reproduces the full pass cell for cell —
/// this is what lets the sharded phase B parallelize the scheduler
/// across cell ranges without changing a single emitted record.
#[allow(clippy::too_many_arguments)]
pub(crate) fn day_kpi_from_grid_range(
    world: &World,
    scheduler: &Scheduler,
    grid: &DayLoadGrid,
    day: u16,
    lo: usize,
    hi: usize,
    hours_buf: &mut Vec<HourlyKpiSample>,
    mut sink: impl FnMut(u32, &[HourlyKpiSample]),
) {
    for cell in &world.topo.cells()[lo..hi] {
        if cell.rat != Rat::G4 || !cell.is_active(day) {
            continue;
        }
        let mut any_usage = false;
        hours_buf.clear();
        for hour in 0..24u8 {
            let load = grid.get(cell.id.index(), hour as usize);
            if load.connected_users > 0.0 {
                any_usage = true;
            }
            let radio = scheduler.serve(cell.capacity, load);
            // Interconnect DL loss is added in the sequential pass;
            // pass 0 here.
            let kpi_hour = CellHourKpi::from_radio(cell.id, day, hour, &radio, 0.0);
            hours_buf.push(hourly_sample(&kpi_hour));
        }
        if any_usage {
            sink(cell.id.0, hours_buf);
        }
    }
}

/// One cell-hour's KPIs as the sample the cell-day medians read.
pub fn hourly_sample(kpi: &CellHourKpi) -> HourlyKpiSample {
    HourlyKpiSample {
        dl_volume_mb: kpi.dl_volume_mb,
        ul_volume_mb: kpi.ul_volume_mb,
        active_dl_users: kpi.active_dl_users,
        connected_users: kpi.connected_users,
        user_dl_throughput_mbps: kpi.user_dl_throughput_mbps,
        tti_utilization: kpi.tti_utilization,
        voice_volume_mb: kpi.voice.volume_mb,
        voice_users: kpi.voice.simultaneous_users,
        voice_ul_loss: kpi.voice.ul_loss_rate,
        voice_dl_loss: kpi.voice.dl_loss_rate,
    }
}

/// Assemble the final dataset. The only fallible step is reading a
/// disk-spilled county-mask store back (the sharded large-scale path);
/// with in-memory masks this never errors.
pub(crate) fn assemble(
    config: &ScenarioConfig,
    world: &World,
    mut phase_a: PhaseA,
    mut kpi: KpiTable,
    voice_daily: Vec<f64>,
) -> Result<StudyDataset, std::io::Error> {
    let num_days = world.num_days();

    // --- Home detection & validation -----------------------------------
    let homes = phase_a.study.detect_homes();
    let mut lad_counts: std::collections::BTreeMap<cellscope_geo::LadId, u32> =
        std::collections::BTreeMap::new();

    let mut users = Vec::with_capacity(world.population.len());
    let eventgen = EventGenerator::new(
        &world.topo,
        &world.catalog,
        world.anonymizer,
        config.events,
    );
    for sub in world.population.subscribers() {
        let z = world.geo.zone(sub.home_zone);
        let anon = world.anonymizer.anon_id(sub.id.0);
        let inferred_home_county = homes.get(&anon).map(|&site| {
            let zone = world.topo.site(cellscope_radio::SiteId(site)).zone;
            let zref = world.geo.zone(zone);
            *lad_counts.entry(zref.lad).or_default() += 1;
            zref.county
        });
        let in_study = world.catalog.is_smartphone(eventgen.tac_of(sub))
            && sub.native;
        users.push(UserInfo {
            home_zone: sub.home_zone,
            home_county: z.county,
            home_cluster: z.cluster,
            home_district: z.district,
            in_study,
            inferred_home_county,
        });
    }
    let home_validation: Vec<HomeValidationPoint> = world
        .geo
        .lads()
        .iter()
        .map(|lad| HomeValidationPoint {
            lad: lad.id,
            census: lad.census_population,
            inferred: lad_counts.get(&lad.id).copied().unwrap_or(0),
        })
        .collect();

    // --- Mobility matrix over inferred Inner-London residents ----------
    // The matrix is pure per-(county, day) counting, so the traversal
    // order over (user, day) is free: the in-memory store walks
    // user-major, a disk spill walks day-major (one row resident at a
    // time) — identical counts either way.
    let mut matrix: MobilityMatrix<County> = MobilityMatrix::new(num_days);
    let record_mask = |mask: u32, day: usize, matrix: &mut MobilityMatrix<County>| {
        for c in County::ALL {
            if mask & (1 << c.index()) != 0 {
                matrix.record(c, day as u16);
            }
        }
    };
    match &mut phase_a.county_masks {
        MaskStore::Mem(masks) => {
            for (idx, info) in users.iter().enumerate() {
                if info.inferred_home_county != Some(County::InnerLondon) {
                    continue;
                }
                for day in 0..num_days {
                    let mask = masks[idx * num_days + day];
                    if mask != 0 {
                        record_mask(mask, day, &mut matrix);
                    }
                }
            }
        }
        MaskStore::Spill(spill) => {
            let mut row = Vec::new();
            for day in 0..num_days {
                spill.read_day(day, &mut row)?;
                for (idx, info) in users.iter().enumerate() {
                    if info.inferred_home_county != Some(County::InnerLondon) {
                        continue;
                    }
                    let mask = row[idx];
                    if mask != 0 {
                        record_mask(mask, day, &mut matrix);
                    }
                }
            }
        }
    }

    // --- Interconnect: calibrate on week 9, then replay the days -------
    let week9: Vec<f64> = world
        .clock
        .days_in_week(cellscope_time::IsoWeek { year: 2020, week: 9 })
        .map(|d| voice_daily[d as usize])
        .collect();
    // Windows that miss week 9 entirely calibrate on the first (up to)
    // seven observed days instead — a baseline from the window's own
    // pre-lockdown head, never a panic.
    let baseline_load = cellscope_core::stats::mean(&week9).unwrap_or_else(|| {
        let head = &voice_daily[..voice_daily.len().min(7)];
        cellscope_core::stats::mean(head).unwrap_or(0.0)
    });
    let ic_config = InterconnectConfig {
        capacity: baseline_load * config.interconnect_headroom,
        ..config.interconnect
    };
    let mut interconnect = Interconnect::new(ic_config);
    let interconnect_daily: Vec<_> = voice_daily
        .iter()
        .map(|&offered| interconnect.step(offered))
        .collect();
    // Spread each day's interconnect loss onto that day's voice DL loss.
    for rec in kpi.records_mut() {
        rec.voice_dl_loss += interconnect_daily[rec.day as usize].dl_loss_rate as f32;
    }
    // The KPI table is final from here on: build its columnar index now
    // so downstream figure builders (possibly parallel) find it ready.
    kpi.columns();

    // --- RAT dwell shares ----------------------------------------------
    let total_rat: u64 = phase_a.rat_minutes.iter().sum();
    let rat_dwell_share = if total_rat == 0 {
        [0.0; 3]
    } else {
        [
            phase_a.rat_minutes[0] as f64 / total_rat as f64,
            phase_a.rat_minutes[1] as f64 / total_rat as f64,
            phase_a.rat_minutes[2] as f64 / total_rat as f64,
        ]
    };

    let study_population = users.iter().filter(|u| u.in_study).count();
    let homes_detected = homes.len();
    let (gyration, entropy, gyration_dist, _night) = phase_a.study.into_parts();

    Ok(StudyDataset {
        clock: world.clock,
        users,
        gyration,
        entropy,
        gyration_dist,
        gyration_by_bin: phase_a.gyration_by_bin,
        kpi,
        cell_geo: world.cell_geo.clone(),
        matrix,
        home_validation,
        interconnect_daily,
        national_voice_daily: voice_daily,
        cases: world.cases,
        rat_dwell_share,
        study_population,
        homes_detected,
        declaration: world.behavior.schedule().declaration_date(),
        full_restriction: world.behavior.schedule().full_restriction_date(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellscope_core::{stats, KpiField};

    /// Every phase-B cell-day of a `tiny` world reaches the cell-day
    /// kernel as 24 samples with no NaN and no −0.0 (the median
    /// network's domain, so the selection fallback never runs on this
    /// traffic), and its record equals the per-field reference medians
    /// bit for bit.
    #[test]
    fn phase_b_cell_days_take_the_median_network() {
        let config = ScenarioConfig::tiny(7);
        let world = World::build(&config);
        let scale = calibrate_traffic_scale(&config, &world);
        let mut trajgen =
            TrajectoryGenerator::new(&world.geo, &world.behavior, world.clock, config.seed);
        let loadgen = load_generator(&config, scale);
        let scheduler = Scheduler::new(SchedulerConfig::default());
        let mut grid = DayLoadGrid::new(world.topo.cells().len());
        let mut traj_buf = DayTrajectory::default();
        let mut hours_buf = Vec::with_capacity(24);
        let mut cell_days = 0usize;
        for day in world.clock.days() {
            simulate_day_kpi(
                &world,
                &mut trajgen,
                &loadgen,
                &scheduler,
                &mut grid,
                day,
                &mut traj_buf,
                &mut hours_buf,
                |cell, hours| {
                    assert_eq!(hours.len(), 24, "cell {cell} day {day}");
                    let rec = CellDayMetrics::from_hourly(cell, day, hours).unwrap();
                    for field in KpiField::ALL {
                        let column: Vec<f64> = hours.iter().map(|h| h.get(field)).collect();
                        assert!(
                            column
                                .iter()
                                .all(|v| !v.is_nan() && v.to_bits() != (-0.0f64).to_bits()),
                            "cell {cell} day {day} {field:?}: {column:?}"
                        );
                        let want = stats::percentile_ref(&column, 50.0).unwrap() as f32;
                        assert_eq!(
                            rec.get_f32(field).to_bits(),
                            want.to_bits(),
                            "cell {cell} day {day} {field:?}"
                        );
                    }
                    cell_days += 1;
                },
            );
        }
        assert!(cell_days > 10_000, "only {cell_days} cell-days");
    }
}
