//! Streaming feed-replay engine with fault tolerance.
//!
//! The paper's pipeline never sees ground truth: it consumes probe
//! *feeds* — signaling events and per-cell KPI counters. This module
//! closes that loop for the synthetic study: [`export_feeds`] writes a
//! run's feeds to disk (JSONL: one record per line, full `f64` text
//! precision so numbers round-trip bit-exactly), and [`replay_study`]
//! streams them back through the **identical analysis objects** the
//! in-memory runner drives ([`cellscope_core::study::MobilityStudy`],
//! [`cellscope_core::KpiTable`], home detection, the mobility matrix),
//! producing a [`StudyDataset`] that is bit-for-bit equal to the
//! in-memory one.
//!
//! # Pipeline
//!
//! Replay runs on [`cellscope_exec`]'s bounded-channel pipeline
//! ([`Executor::run_pipeline`]):
//!
//! * a **reader stage** (the pipeline's producer, on the calling
//!   thread) streams the per-day feed files in day order into a bounded
//!   channel — when workers fall behind, production blocks, so the
//!   reader can never balloon memory;
//! * **worker threads** parse each day's feeds (via the streaming
//!   [`EventReader`], honouring a [`MalformedPolicy`]) and fold them
//!   into per-day partials using the same ingestion helpers as the
//!   in-memory phase A;
//! * the execution layer hands the partials back **in day order** and
//!   the runner's assembly step is reused.
//!
//! Determinism follows from day ownership (see [`crate::run`]): each
//! accumulator bucket is produced by exactly one day's worker, so the
//! merged result does not depend on the number of workers or on which
//! worker processed which day.
//!
//! # Feed formats
//!
//! The reader stage accepts either on-disk representation per file:
//! JSONL (`*.jsonl`) or binary columnar segments (`*.csb`, see
//! [`cellscope_signaling::columnar`] and [`crate::feedfmt`]). For each
//! feed it prefers the `.csb` file when both exist, and sniffs the
//! *content* by magic — a binary segment stored under a `.jsonl` name
//! still decodes. A `.csb` file is *opened*, not slurped: the worker
//! pulls it through a bounded
//! [`cellscope_signaling::columnar::SegmentBlockReader`] one segment
//! at a time (files may hold several back-to-back segments — the
//! encoder splits oversize days), decoding into the same worker-owned
//! scratch arenas the JSONL path uses, so peak raw-feed memory per
//! worker is one segment and the steady-state loop allocates nothing
//! either way. The two paths produce bit-identical datasets (pinned by
//! `tests/feedfmt_equivalence.rs`); streamed volume is reported as
//! [`ReplayReport::bytes_streamed`].
//!
//! # Fault tolerance
//!
//! Every feed line lands in exactly one accounting bucket of
//! [`ReplayReport`] (`parsed + blank + malformed == lines_read`, per
//! feed; for binary segments the header's record count plays the role
//! of the line count). Under [`MalformedPolicy::FailFast`] the first
//! bad line aborts with its file and 1-based line number — a damaged
//! segment aborts with a typed [`SegmentError`] carried by
//! [`FeedError::Segment`] — and under
//! [`MalformedPolicy::SkipAndCount`] bad input is dropped and counted
//! while the analysis degrades gracefully, the way the paper's own
//! probes drop records; the first [`MAX_MALFORMED_LOCATIONS`] damage
//! positions are kept in [`ReplayReport::malformed_at`]. A worker
//! panic does not abort or hang the pipeline: the execution layer
//! captures it (draining the channel so the reader is never left
//! blocked) and [`replay_study`] returns [`ReplayError::Exec`] naming
//! the stage and day task.

use crate::config::ScenarioConfig;
use crate::dataset::StudyDataset;
use crate::feedfmt::{self, events_bin_name, kpi_bin_name, VOICE_BIN_FILE};
use crate::run::{self, IngestScratch, PhaseABlock, SiteDwell, StudyRoster};
use crate::world::World;
use cellscope_core::kpi_stats::{CellDayMetrics, HourlyKpiSample};
use cellscope_core::KpiTable;
use cellscope_exec::{ExecError, Executor};
use cellscope_mobility::{DayTrajectory, TrajectoryGenerator};
use cellscope_radio::{Scheduler, SchedulerConfig};
use cellscope_signaling::columnar::{
    self, DecodeScratch, SegmentError, SegmentStreamError, SegmentView,
};
use cellscope_signaling::export::{
    parse_line, push_f64, push_u64, write_line, JsonlRecord, LineScanner,
};
use cellscope_signaling::{
    reconstruct_dwell_into, write_events_jsonl, EventGenerator, EventReader, FeedBounds,
    FeedError, FeedStats, MalformedPolicy, SignalingEvent,
};
use cellscope_traffic::{DayLoadGrid, LoadGenerator};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Feed-set metadata, written next to the feeds as `manifest.json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeedManifest {
    /// Scenario seed the feeds were generated from.
    pub seed: u64,
    /// Study days covered (one events + one KPI file each).
    pub num_days: u16,
    /// Cells in the topology (bounds-checks `event.cell`).
    pub num_cells: u32,
    /// Subscribers in the population.
    pub num_subscribers: u64,
    /// Calibrated traffic scale the KPI feed was simulated at.
    pub traffic_scale: f64,
}

/// One KPI feed line: a cell's post-scheduler sample for one hour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KpiHourRecord {
    /// Cell id.
    pub cell: u32,
    /// Study day.
    pub day: u16,
    /// Hour of day, 0–23.
    pub hour: u8,
    /// The hourly KPI sample.
    pub sample: HourlyKpiSample,
}

/// One voice feed line: the national off-net voice volume of one day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoiceDayRecord {
    /// Study day.
    pub day: u16,
    /// Off-net voice volume offered to the interconnect, MB.
    pub off_net_voice_mb: f64,
}

impl JsonlRecord for KpiHourRecord {
    fn write_json(&self, out: &mut Vec<u8>) {
        let s = &self.sample;
        out.extend_from_slice(br#"{"cell":"#);
        push_u64(out, self.cell.into());
        out.extend_from_slice(br#","day":"#);
        push_u64(out, self.day.into());
        out.extend_from_slice(br#","hour":"#);
        push_u64(out, self.hour.into());
        out.extend_from_slice(br#","sample":{"dl_volume_mb":"#);
        push_f64(out, s.dl_volume_mb);
        out.extend_from_slice(br#","ul_volume_mb":"#);
        push_f64(out, s.ul_volume_mb);
        out.extend_from_slice(br#","active_dl_users":"#);
        push_f64(out, s.active_dl_users);
        out.extend_from_slice(br#","connected_users":"#);
        push_f64(out, s.connected_users);
        out.extend_from_slice(br#","user_dl_throughput_mbps":"#);
        push_f64(out, s.user_dl_throughput_mbps);
        out.extend_from_slice(br#","tti_utilization":"#);
        push_f64(out, s.tti_utilization);
        out.extend_from_slice(br#","voice_volume_mb":"#);
        push_f64(out, s.voice_volume_mb);
        out.extend_from_slice(br#","voice_users":"#);
        push_f64(out, s.voice_users);
        out.extend_from_slice(br#","voice_ul_loss":"#);
        push_f64(out, s.voice_ul_loss);
        out.extend_from_slice(br#","voice_dl_loss":"#);
        push_f64(out, s.voice_dl_loss);
        out.extend_from_slice(b"}}");
    }

    fn scan_json(scan: &mut LineScanner<'_>) -> Option<KpiHourRecord> {
        scan.literal(r#"{"cell":"#)?;
        let cell = scan.uint()?;
        scan.literal(r#","day":"#)?;
        let day = scan.uint()?;
        scan.literal(r#","hour":"#)?;
        let hour = scan.uint()?;
        scan.literal(r#","sample":{"dl_volume_mb":"#)?;
        let dl_volume_mb = scan.f64()?;
        scan.literal(r#","ul_volume_mb":"#)?;
        let ul_volume_mb = scan.f64()?;
        scan.literal(r#","active_dl_users":"#)?;
        let active_dl_users = scan.f64()?;
        scan.literal(r#","connected_users":"#)?;
        let connected_users = scan.f64()?;
        scan.literal(r#","user_dl_throughput_mbps":"#)?;
        let user_dl_throughput_mbps = scan.f64()?;
        scan.literal(r#","tti_utilization":"#)?;
        let tti_utilization = scan.f64()?;
        scan.literal(r#","voice_volume_mb":"#)?;
        let voice_volume_mb = scan.f64()?;
        scan.literal(r#","voice_users":"#)?;
        let voice_users = scan.f64()?;
        scan.literal(r#","voice_ul_loss":"#)?;
        let voice_ul_loss = scan.f64()?;
        scan.literal(r#","voice_dl_loss":"#)?;
        let voice_dl_loss = scan.f64()?;
        scan.literal("}}")?;
        Some(KpiHourRecord {
            cell,
            day,
            hour,
            sample: HourlyKpiSample {
                dl_volume_mb,
                ul_volume_mb,
                active_dl_users,
                connected_users,
                user_dl_throughput_mbps,
                tti_utilization,
                voice_volume_mb,
                voice_users,
                voice_ul_loss,
                voice_dl_loss,
            },
        })
    }
}

impl JsonlRecord for VoiceDayRecord {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(br#"{"day":"#);
        push_u64(out, self.day.into());
        out.extend_from_slice(br#","off_net_voice_mb":"#);
        push_f64(out, self.off_net_voice_mb);
        out.push(b'}');
    }

    fn scan_json(scan: &mut LineScanner<'_>) -> Option<VoiceDayRecord> {
        scan.literal(r#"{"day":"#)?;
        let day = scan.uint()?;
        scan.literal(r#","off_net_voice_mb":"#)?;
        let off_net_voice_mb = scan.f64()?;
        scan.literal("}")?;
        Some(VoiceDayRecord { day, off_net_voice_mb })
    }
}

/// Events feed file name for a day.
pub fn events_file_name(day: u16) -> String {
    format!("events_d{day:03}.jsonl")
}

/// KPI feed file name for a day.
pub fn kpi_file_name(day: u16) -> String {
    format!("kpi_d{day:03}.jsonl")
}

/// The daily national voice feed.
pub const VOICE_FILE: &str = "voice_daily.jsonl";
/// The feed-set manifest.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Export a configuration's feeds: per-day signaling events (every
/// subscriber — probe-faithful; the study filter is the *consumer's*
/// job, decided from event fields), per-day hourly KPI samples for the
/// reporting cells, the daily voice feed, and the manifest.
pub fn export_feeds(config: &ScenarioConfig, dir: &Path) -> io::Result<FeedManifest> {
    let world = World::build(config);
    export_feeds_in(config, &world, dir)
}

/// [`export_feeds`] over a pre-built world.
pub fn export_feeds_in(
    config: &ScenarioConfig,
    world: &World,
    dir: &Path,
) -> io::Result<FeedManifest> {
    let mut exporter = FeedExporter::new(config, world, dir)?;
    for day in world.clock.days() {
        exporter.export_day(day)?;
    }
    exporter.write_manifest()?;
    Ok(exporter.manifest)
}

/// The feed writer behind [`export_feeds_in`], one day at a time.
///
/// [`FeedExporter::export_day`] writes a day's events and KPI files and
/// appends its voice line; [`FeedExporter::write_manifest`] writes the
/// manifest. Days must be exported in clock order, each once: the voice
/// feed is appended to in call order. Paired with
/// [`replay_study_staged`], a caller can replay a feed set while it is
/// being exported, holding a day or two of feed files on disk instead
/// of the whole set.
pub struct FeedExporter<'w> {
    world: &'w World,
    dir: PathBuf,
    trajgen: TrajectoryGenerator<'w>,
    eventgen: EventGenerator<'w>,
    loadgen: LoadGenerator,
    scheduler: Scheduler,
    grid: DayLoadGrid,
    traj_buf: DayTrajectory,
    events_buf: Vec<SignalingEvent>,
    hours_buf: Vec<HourlyKpiSample>,
    line_buf: Vec<u8>,
    voice_out: fs::File,
    manifest: FeedManifest,
}

impl<'w> FeedExporter<'w> {
    /// Create `dir` and the (empty) voice feed; no day is written yet.
    pub fn new(
        config: &ScenarioConfig,
        world: &'w World,
        dir: &Path,
    ) -> io::Result<FeedExporter<'w>> {
        if !config.use_event_reconstruction {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "feed export requires use_event_reconstruction: the replay \
                 path sees events, never trajectories",
            ));
        }
        fs::create_dir_all(dir)?;
        let scale = run::calibrate_traffic_scale(config, world);
        Ok(FeedExporter {
            world,
            dir: dir.to_path_buf(),
            trajgen: TrajectoryGenerator::new(
                &world.geo,
                &world.behavior,
                world.clock,
                config.seed,
            ),
            eventgen: EventGenerator::new(
                &world.topo,
                &world.catalog,
                world.anonymizer,
                config.events,
            ),
            loadgen: run::load_generator(config, scale),
            scheduler: Scheduler::new(SchedulerConfig::default()),
            grid: DayLoadGrid::new(world.topo.cells().len()),
            traj_buf: DayTrajectory::default(),
            events_buf: Vec::new(),
            hours_buf: Vec::with_capacity(24),
            line_buf: Vec::new(),
            voice_out: fs::File::create(dir.join(VOICE_FILE))?,
            manifest: FeedManifest {
                seed: config.seed,
                num_days: world.num_days() as u16,
                num_cells: world.topo.cells().len() as u32,
                num_subscribers: world.population.len() as u64,
                traffic_scale: scale,
            },
        })
    }

    /// The manifest of the feed set being written.
    pub fn manifest(&self) -> &FeedManifest {
        &self.manifest
    }

    /// Write `day`'s events and KPI feed files and append its line to
    /// the voice feed.
    pub fn export_day(&mut self, day: u16) -> io::Result<()> {
        let world = self.world;
        // Signaling events, one contiguous run per subscriber, in
        // subscriber order — the order replay ingests in.
        let mut ev_out =
            BufWriter::new(fs::File::create(self.dir.join(events_file_name(day)))?);
        for sub in world.population.subscribers() {
            self.trajgen.generate_into(sub, day, &mut self.traj_buf);
            self.eventgen
                .generate_into(sub, &self.traj_buf, &mut self.events_buf);
            write_events_jsonl(&mut ev_out, &self.events_buf)?;
        }
        ev_out.flush()?;

        // Hourly KPI samples for the day's reporting cells (the same
        // set phase B keeps), 24 consecutive lines per cell.
        let mut kpi_out =
            BufWriter::new(fs::File::create(self.dir.join(kpi_file_name(day)))?);
        let mut write_err: Option<io::Error> = None;
        let line_buf = &mut self.line_buf;
        let voice = run::simulate_day_kpi(
            world,
            &mut self.trajgen,
            &self.loadgen,
            &self.scheduler,
            &mut self.grid,
            day,
            &mut self.traj_buf,
            &mut self.hours_buf,
            |cell, hours| {
                if write_err.is_some() {
                    return;
                }
                line_buf.clear();
                for (hour, sample) in hours.iter().enumerate() {
                    let rec = KpiHourRecord {
                        cell,
                        day,
                        hour: hour as u8,
                        sample: *sample,
                    };
                    write_line(&rec, line_buf);
                }
                if let Err(e) = kpi_out.write_all(line_buf) {
                    write_err = Some(e);
                }
            },
        );
        if let Some(e) = write_err {
            return Err(e);
        }
        kpi_out.flush()?;

        line_buf.clear();
        write_line(&VoiceDayRecord { day, off_net_voice_mb: voice }, line_buf);
        self.voice_out.write_all(line_buf)
    }

    /// Write `manifest.json`. [`export_feeds_in`] writes it after the
    /// last day, so a complete manifest follows a complete feed set.
    pub fn write_manifest(&self) -> io::Result<()> {
        let manifest_json = serde_json::to_string_pretty(&self.manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        fs::write(self.dir.join(MANIFEST_FILE), manifest_json)
    }
}

/// How the reader stage gets `.csb` feed bytes to the decoders.
///
/// * **Streamed** (the default): each file is pulled through a bounded
///   [`columnar::SegmentBlockReader`] — one segment resident per
///   worker, works on any readable file.
/// * **Mapped**: each file is `mmap`ed via
///   [`columnar::SegmentView`] and the decoders borrow column bytes
///   straight from the mapped pages — zero copies, CRC verified once
///   per segment, resident memory file-backed (the OS reclaims it
///   under pressure). Truncated or damaged files surface as the same
///   typed [`SegmentError`]s as the other paths; mapped volume is
///   reported as [`ReplayReport::bytes_mapped`].
///
/// Both paths produce bit-identical datasets and identical accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayOptions {
    /// Map `.csb` feed files instead of streaming them.
    pub mmap_segments: bool,
}

impl ReplayOptions {
    /// Zero-copy mapped segment reads.
    pub const fn mapped() -> ReplayOptions {
        ReplayOptions { mmap_segments: true }
    }

    /// Bounded streaming segment reads (the default).
    pub const fn streamed() -> ReplayOptions {
        ReplayOptions { mmap_segments: false }
    }
}

/// Knobs of the replay pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Worker threads (0 = machine parallelism).
    pub threads: usize,
    /// Day tasks buffered between the reader and the workers
    /// (0 = 2 × threads). The reader blocks when the buffer is full —
    /// this is the pipeline's backpressure.
    pub channel_capacity: usize,
    /// What to do with feed lines that fail parsing or validation.
    pub policy: MalformedPolicy,
    /// How binary feed files reach the decoders (mmap vs streaming).
    pub options: ReplayOptions,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            threads: 0,
            channel_capacity: 0,
            policy: MalformedPolicy::FailFast,
            options: ReplayOptions::default(),
        }
    }
}

/// Per-worker totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerStats {
    /// Day tasks this worker processed.
    pub days_processed: u64,
    /// Events this worker ingested.
    pub events_ingested: u64,
    /// Wall-clock seconds spent in day processing.
    pub seconds: f64,
    /// Ingested events per busy second.
    pub events_per_sec: f64,
}

/// Most malformed-input positions a [`ReplayReport`] records. The
/// malformed *counts* stay exact past the cap; the recorded positions
/// are the first witnesses, so a feed damaged in millions of places
/// cannot turn the report into an unbounded allocation.
pub const MAX_MALFORMED_LOCATIONS: usize = 64;

/// Where one malformed input unit sat: feed file plus 1-based line
/// number (JSONL) or 1-based record index (binary segments; `line == 0`
/// means the segment envelope itself — header or checksum — was bad).
///
/// The file name is interned (`Arc<str>`): a feed damaged in many
/// places records many positions but shares one name allocation,
/// instead of cloning the string per hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedAt {
    /// Feed file, relative to the feed directory.
    pub file: Arc<str>,
    /// 1-based line/record position; 0 for a whole-segment failure.
    pub line: u64,
}

/// Per-stage counters of one replay run. Invariants (asserted by the
/// robustness tests): per feed, `parsed + blank + malformed ==
/// lines_read`; and `events.parsed == events_ingested + events_filtered
/// + events_unknown_user + events_out_of_order`.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Feed files opened by the reader stage.
    pub files_read: u64,
    /// Raw bytes handed to the parse stage (file sizes: for streamed
    /// binary feeds this is the on-disk length, counted at open time).
    pub bytes_read: u64,
    /// Bytes decoded through the bounded segment streamer — binary
    /// feeds read block by block into worker arenas instead of being
    /// slurped whole. JSONL feeds do not contribute.
    pub bytes_streamed: u64,
    /// Bytes decoded zero-copy through mmap-backed [`columnar::SegmentView`]s
    /// (the [`ReplayOptions::mmap_segments`] path). Counted at map
    /// time: the whole file is mapped, the OS pages it in on demand.
    pub bytes_mapped: u64,
    /// Event-feed line accounting, merged over all days.
    pub events: FeedStats,
    /// KPI-feed line accounting, merged over all days.
    pub kpi: FeedStats,
    /// Voice-feed line accounting.
    pub voice: FeedStats,
    /// Parsed events dropped because their minute went backwards inside
    /// a subscriber run, their day disagreed with the feed file's day,
    /// or their subscriber reappeared after its run ended.
    pub events_out_of_order: u64,
    /// Parsed events whose anonymized id matches no subscriber.
    pub events_unknown_user: u64,
    /// Parsed events excluded by the study filter (non-smartphone TAC
    /// or non-native PLMN) — expected on probe-faithful feeds.
    pub events_filtered: u64,
    /// Events that drove the mobility pipeline.
    pub events_ingested: u64,
    /// (user, day) pairs ingested.
    pub user_days: u64,
    /// Cell-day KPI records rebuilt.
    pub cell_days: u64,
    /// Positions of the first [`MAX_MALFORMED_LOCATIONS`] malformed
    /// input units, in day order (voice last). Under skip-and-count
    /// these are the only trace of *where* the feeds were damaged.
    pub malformed_at: Vec<MalformedAt>,
    /// Per-worker throughput.
    pub workers: Vec<WorkerStats>,
}

impl ReplayReport {
    /// Record a malformed-input position, honouring the cap. The
    /// interned name is cloned (refcount bump), never re-allocated.
    fn note_malformed(&mut self, file: &Arc<str>, line: u64) {
        if self.malformed_at.len() < MAX_MALFORMED_LOCATIONS {
            self.malformed_at.push(MalformedAt { file: Arc::clone(file), line });
        }
    }
    /// Per-feed line accounting closes: every line read landed in
    /// exactly one of parsed/blank/malformed.
    pub fn lines_balance(&self) -> bool {
        let ok = |s: &FeedStats| s.parsed + s.blank + s.malformed == s.lines_read;
        ok(&self.events) && ok(&self.kpi) && ok(&self.voice)
    }

    /// Event ingest accounting closes: every parsed event landed in
    /// exactly one of ingested/filtered/unknown/out-of-order.
    pub fn events_balance(&self) -> bool {
        self.events.parsed
            == self.events_ingested
                + self.events_filtered
                + self.events_unknown_user
                + self.events_out_of_order
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "files {} ({} bytes, {} streamed, {} mapped)",
            self.files_read, self.bytes_read, self.bytes_streamed, self.bytes_mapped
        )?;
        let feed = |name: &str, s: &FeedStats| {
            format!(
                "{name}: {} lines = {} parsed + {} blank + {} malformed",
                s.lines_read, s.parsed, s.blank, s.malformed
            )
        };
        writeln!(f, "{}", feed("events", &self.events))?;
        writeln!(f, "{}", feed("kpi   ", &self.kpi))?;
        writeln!(f, "{}", feed("voice ", &self.voice))?;
        if !self.malformed_at.is_empty() {
            write!(f, "malformed at:")?;
            for loc in self.malformed_at.iter().take(8) {
                write!(f, " {}:{}", loc.file, loc.line)?;
            }
            if self.malformed_at.len() > 8 {
                write!(f, " (+{} more)", self.malformed_at.len() - 8)?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "ingest: {} ingested + {} filtered + {} unknown-user + {} out-of-order; \
             {} user-days, {} cell-days",
            self.events_ingested,
            self.events_filtered,
            self.events_unknown_user,
            self.events_out_of_order,
            self.user_days,
            self.cell_days
        )?;
        for (i, w) in self.workers.iter().enumerate() {
            writeln!(
                f,
                "worker {i}: {} days, {} events, {:.1} ev/s",
                w.days_processed, w.events_ingested, w.events_per_sec
            )?;
        }
        Ok(())
    }
}

/// A replay failure.
#[derive(Debug)]
pub enum ReplayError {
    /// Underlying I/O failure (missing feed file, unreadable dir…).
    Io(io::Error),
    /// A feed file failed parsing or validation under fail-fast.
    Feed {
        /// Feed file (relative to the feed dir).
        file: String,
        /// The line-located failure.
        source: FeedError,
    },
    /// Manifest missing/invalid, or feeds incompatible with the
    /// configuration being replayed into.
    Manifest(String),
    /// A panic in a replay worker, captured by the execution layer;
    /// carries the stage and day-task index.
    Exec(ExecError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "replay I/O error: {e}"),
            ReplayError::Feed { file, source } => write!(f, "{file}: {source}"),
            ReplayError::Manifest(msg) => write!(f, "feed manifest: {msg}"),
            ReplayError::Exec(e) => write!(f, "replay worker: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<io::Error> for ReplayError {
    fn from(e: io::Error) -> ReplayError {
        ReplayError::Io(e)
    }
}

impl From<ExecError> for ReplayError {
    fn from(e: ExecError) -> ReplayError {
        ReplayError::Exec(e)
    }
}

/// One feed file's content, classified by the reader stage.
enum DayFeed {
    /// UTF-8 text, one JSON record per line.
    Jsonl(String),
    /// One or more binary columnar segments, fully in memory (a segment
    /// stored under a `.jsonl` name, recognised by magic).
    Binary(Vec<u8>),
    /// An opened `.csb` file plus its on-disk length: the worker
    /// decodes it segment by segment through a bounded
    /// [`columnar::SegmentBlockReader`] instead of slurping the file,
    /// so peak memory per feed is one segment, not the whole day.
    Stream(fs::File, u64),
    /// An mmap-backed `.csb` file ([`ReplayOptions::mmap_segments`]):
    /// the worker decodes segments as borrows of the mapped pages —
    /// zero copies, resident memory file-backed and reclaimable.
    Mapped(SegmentView),
}

impl DayFeed {
    fn len(&self) -> usize {
        match self {
            DayFeed::Jsonl(text) => text.len(),
            DayFeed::Binary(bytes) => bytes.len(),
            DayFeed::Stream(_, len) => *len as usize,
            DayFeed::Mapped(view) => view.len(),
        }
    }
}

/// Read one per-day feed, preferring the binary file when both exist
/// and sniffing the content by magic so a segment stored under the
/// JSONL name still decodes. The `.csb` path is *opened*, not read:
/// the worker streams its segments through a bounded reader, or —
/// under [`ReplayOptions::mmap_segments`] — borrows them from an
/// mmap-backed [`SegmentView`]. Invalid UTF-8 text is an I/O-level
/// error, exactly as it was when the reader used `read_to_string`.
fn read_day_feed(
    dir: &Path,
    bin_name: String,
    jsonl_name: String,
    options: ReplayOptions,
) -> io::Result<(String, DayFeed)> {
    let bin_path = dir.join(&bin_name);
    if bin_path.exists() {
        if options.mmap_segments {
            let view = SegmentView::open(&bin_path)?;
            return Ok((bin_name, DayFeed::Mapped(view)));
        }
        let file = fs::File::open(bin_path)?;
        let len = file.metadata()?.len();
        return Ok((bin_name, DayFeed::Stream(file, len)));
    }
    let bytes = fs::read(dir.join(&jsonl_name))?;
    if columnar::looks_like_segment(&bytes) {
        return Ok((jsonl_name, DayFeed::Binary(bytes)));
    }
    match String::from_utf8(bytes) {
        Ok(text) => Ok((jsonl_name, DayFeed::Jsonl(text))),
        Err(e) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{jsonl_name}: not UTF-8 and not a binary segment: {e}"),
        )),
    }
}

/// One day's work unit, produced by the reader stage.
struct DayTask {
    day: u16,
    events_name: String,
    events_feed: DayFeed,
    kpi_name: String,
    kpi_feed: DayFeed,
}

/// One day's replay product.
struct DayOutput {
    block: PhaseABlock,
    kpi: KpiTable,
    stats: DayStats,
}

#[derive(Default)]
struct DayStats {
    events: FeedStats,
    kpi: FeedStats,
    malformed_at: Vec<MalformedAt>,
    out_of_order: u64,
    unknown_user: u64,
    filtered: u64,
    ingested: u64,
    user_days: u64,
    cell_days: u64,
    bytes_streamed: u64,
    bytes_mapped: u64,
}

impl DayStats {
    /// Record a malformed-input position (same cap as the report: the
    /// merge step re-caps across days, so per-day lists never need
    /// more entries than the report can keep). The file name is
    /// interned — each hit bumps a refcount instead of cloning.
    fn note_malformed(&mut self, file: &Arc<str>, line: u64) {
        if self.malformed_at.len() < MAX_MALFORMED_LOCATIONS {
            self.malformed_at.push(MalformedAt { file: Arc::clone(file), line });
        }
    }
}

fn add_stats(a: &mut FeedStats, b: FeedStats) {
    a.lines_read += b.lines_read;
    a.parsed += b.parsed;
    a.blank += b.blank;
    a.malformed += b.malformed;
}

/// Wrap a damaged-segment cause in the feed error chain.
fn segment_feed_error(file: String, cause: SegmentError) -> ReplayError {
    ReplayError::Feed { file, source: FeedError::Segment(cause) }
}

/// How many records a damaged segment claims — the amount its
/// `lines_read`/`malformed` accounting is charged under skip-and-count.
/// A segment too damaged to even peek a header counts as one bad unit,
/// as does one claiming zero records (the damage itself is the unit).
fn claimed_records(bytes: &[u8]) -> u64 {
    columnar::peek_records(bytes).map_or(1, |n| n.max(1)) as u64
}

/// Replay exported feeds into a [`StudyDataset`].
///
/// Builds the world for `config` (feeds carry no ground truth — the
/// subscriber reference table, cell geography and case curve come from
/// the same deterministic world build the exporter used), then streams
/// the feeds through the pipeline described at module level.
pub fn replay_study(
    config: &ScenarioConfig,
    dir: &Path,
    rcfg: &ReplayConfig,
) -> Result<(StudyDataset, ReplayReport), ReplayError> {
    let world = World::build(config);
    replay_study_in(config, &world, dir, rcfg)
}

/// [`replay_study`] over a pre-built world.
pub fn replay_study_in(
    config: &ScenarioConfig,
    world: &World,
    dir: &Path,
    rcfg: &ReplayConfig,
) -> Result<(StudyDataset, ReplayReport), ReplayError> {
    let mut exec = Executor::new(rcfg.threads);
    replay_study_with(config, world, dir, rcfg, &mut exec)
}

/// [`replay_study_in`] on a caller-supplied [`Executor`], so the
/// replay's stage metrics land in the caller's [`RunMetrics`] tree.
pub fn replay_study_with(
    config: &ScenarioConfig,
    world: &World,
    dir: &Path,
    rcfg: &ReplayConfig,
    exec: &mut Executor,
) -> Result<(StudyDataset, ReplayReport), ReplayError> {
    replay_study_staged(config, world, dir, rcfg, exec, |_| Ok(()))
}

/// [`replay_study_with`] that calls `stage(day)` in the reader stage
/// just before it opens `day`'s events and KPI files; the voice feed is
/// read after the last day. With a [`FeedExporter`] behind `stage`, a
/// feed set is replayed while it is written: export the day, remove the
/// day already read, and only a day or two of feed files is ever on
/// disk. An error from `stage` ends the replay as [`ReplayError::Io`].
pub fn replay_study_staged(
    config: &ScenarioConfig,
    world: &World,
    dir: &Path,
    rcfg: &ReplayConfig,
    exec: &mut Executor,
    mut stage: impl FnMut(u16) -> io::Result<()>,
) -> Result<(StudyDataset, ReplayReport), ReplayError> {
    if !config.use_event_reconstruction {
        return Err(ReplayError::Manifest(
            "replay requires use_event_reconstruction".to_string(),
        ));
    }
    let manifest_text = fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let manifest: FeedManifest = serde_json::from_str(&manifest_text)
        .map_err(|e| ReplayError::Manifest(e.to_string()))?;
    if manifest.seed != config.seed {
        return Err(ReplayError::Manifest(format!(
            "feed seed {} != scenario seed {}",
            manifest.seed, config.seed
        )));
    }
    if manifest.num_days as usize != world.num_days()
        || manifest.num_cells as usize != world.topo.cells().len()
        || manifest.num_subscribers as usize != world.population.len()
    {
        return Err(ReplayError::Manifest(format!(
            "feed universe ({} days, {} cells, {} subscribers) does not \
             match the scenario's ({}, {}, {})",
            manifest.num_days,
            manifest.num_cells,
            manifest.num_subscribers,
            world.num_days(),
            world.topo.cells().len(),
            world.population.len()
        )));
    }

    let capacity = if rcfg.channel_capacity == 0 {
        exec.threads() * 2
    } else {
        rcfg.channel_capacity
    };
    let bounds = FeedBounds {
        num_days: manifest.num_days,
        num_cells: manifest.num_cells,
    };
    let roster = run::build_roster(config, world);
    let mut anon_index: HashMap<u64, u32> =
        HashMap::with_capacity(world.population.len());
    for (idx, sub) in world.population.subscribers().iter().enumerate() {
        anon_index.insert(world.anonymizer.anon_id(sub.id.0), idx as u32);
    }
    let feb_set = run::february_set(world);
    let num_days = world.num_days();

    let mut report = ReplayReport::default();
    let mut read_err: Option<ReplayError> = None;

    // Reader stage: the pipeline's producer streams the per-day feed
    // files through the bounded channel in day order, so the pipeline's
    // task index *is* the day and its result order is day order.
    let mut days = world.clock.days();
    let policy = rcfg.policy;
    let options = rcfg.options;
    let roster_ref = &roster;
    let anon_ref = &anon_index;
    let feb_ref = &feb_set;
    let (outputs, worker_metrics) = exec.run_pipeline_with(
        "replay_days",
        capacity,
        || {
            if read_err.is_some() {
                return None;
            }
            let day = days.next()?;
            if let Err(e) = stage(day) {
                read_err = Some(ReplayError::Io(e));
                return None;
            }
            let (events_name, events_feed) = match read_day_feed(
                dir,
                events_bin_name(day),
                events_file_name(day),
                options,
            ) {
                Ok(v) => v,
                Err(e) => {
                    read_err = Some(ReplayError::Io(e));
                    return None;
                }
            };
            let (kpi_name, kpi_feed) =
                match read_day_feed(dir, kpi_bin_name(day), kpi_file_name(day), options) {
                    Ok(v) => v,
                    Err(e) => {
                        read_err = Some(ReplayError::Io(e));
                        return None;
                    }
                };
            report.files_read += 2;
            report.bytes_read += (events_feed.len() + kpi_feed.len()) as u64;
            Some(DayTask { day, events_name, events_feed, kpi_name, kpi_feed })
        },
        ReplayScratch::default,
        |scratch, _, task, ctx| {
            let r = replay_day(
                world, roster_ref, anon_ref, feb_ref, policy, bounds, task, scratch,
            );
            if let Ok(out) = &r {
                ctx.add_items(out.stats.ingested);
                ctx.count("bytes_streamed", out.stats.bytes_streamed);
                ctx.count("bytes_mapped", out.stats.bytes_mapped);
            }
            r
        },
    )?;

    if let Some(e) = read_err {
        return Err(e);
    }

    report.workers = worker_metrics
        .iter()
        .map(|w| WorkerStats {
            days_processed: w.tasks,
            events_ingested: w.items,
            seconds: w.seconds,
            events_per_sec: if w.seconds > 0.0 {
                w.items as f64 / w.seconds
            } else {
                0.0
            },
        })
        .collect();

    if outputs.len() != num_days {
        return Err(ReplayError::Manifest(format!(
            "replayed {} of {num_days} days",
            outputs.len()
        )));
    }

    // Merge in day order; the earliest day's failure wins, so the
    // reported error does not depend on worker scheduling.
    let mut blocks = Vec::with_capacity(num_days);
    let mut kpi = KpiTable::new();
    for out in outputs {
        let out = out?;
        add_stats(&mut report.events, out.stats.events);
        add_stats(&mut report.kpi, out.stats.kpi);
        for loc in out.stats.malformed_at {
            if report.malformed_at.len() >= MAX_MALFORMED_LOCATIONS {
                break;
            }
            report.malformed_at.push(loc);
        }
        report.bytes_streamed += out.stats.bytes_streamed;
        report.bytes_mapped += out.stats.bytes_mapped;
        report.events_out_of_order += out.stats.out_of_order;
        report.events_unknown_user += out.stats.unknown_user;
        report.events_filtered += out.stats.filtered;
        report.events_ingested += out.stats.ingested;
        report.user_days += out.stats.user_days;
        report.cell_days += out.stats.cell_days;
        blocks.push(out.block);
        kpi.merge(out.kpi);
    }
    let phase_a = run::merge_phase_a(num_days, world.population.len(), blocks);
    let voice_daily =
        read_voice_feed(dir, manifest.num_days, rcfg.policy, options, &mut report)?;

    let dataset = run::assemble(config, world, phase_a, kpi, voice_daily)
        .expect("in-memory mask store cannot fail");
    Ok((dataset, report))
}

/// Per-worker scratch of the replay pipeline: the shared ingest arena
/// plus the day-level buffers (event stream, duplicate-run set, per-cell
/// KPI hours). One instance lives on each worker thread for the whole
/// replay — day after day reuses the same high-water capacity, so the
/// steady-state loop allocates nothing.
#[derive(Default)]
struct ReplayScratch {
    ingest: IngestScratch,
    events: Vec<SignalingEvent>,
    seen: HashSet<u64>,
    hours: Vec<HourlyKpiSample>,
    /// Binary-decode scratch (cell-id dictionary), reused per segment.
    dict: DecodeScratch,
    /// Decoded KPI records of the segment being replayed (binary path).
    kpi_records: Vec<KpiHourRecord>,
    /// One segment's decoded events, appended into `events` — decoders
    /// clear their output, so multi-segment days stage through this.
    seg_events: Vec<SignalingEvent>,
}

/// Replay one day's feeds into a per-day phase-A partial and KPI table.
#[allow(clippy::too_many_arguments)]
fn replay_day(
    world: &World,
    roster: &StudyRoster,
    anon_index: &HashMap<u64, u32>,
    feb_set: &[bool],
    policy: MalformedPolicy,
    bounds: FeedBounds,
    task: DayTask,
    scratch: &mut ReplayScratch,
) -> Result<DayOutput, ReplayError> {
    let DayTask { day, events_name, events_feed, kpi_name, kpi_feed } = task;
    let events_name: Arc<str> = events_name.into();
    let kpi_name: Arc<str> = kpi_name.into();
    let mut stats = DayStats::default();
    let num_subs = roster.members.len();

    // --- Event feed → phase-A partial ----------------------------------
    // Binary feeds hold one or more back-to-back segments; each decodes
    // into the day arena in turn, then the same bounds check the JSONL
    // reader applies per line runs over the whole day: the decoder
    // validates the *encoding*, the bounds validate the *domain*. The
    // headers' record counts are the binary analogue of `lines_read`,
    // so the accounting invariant still closes.
    let mut binary_events = false;
    match events_feed {
        DayFeed::Jsonl(text) => {
            let mut reader = EventReader::new(text.as_bytes())
                .with_policy(policy)
                .with_bounds(bounds);
            scratch.events.clear();
            for item in &mut reader {
                match item {
                    Ok(ev) => scratch.events.push(ev),
                    Err(source) => {
                        return Err(ReplayError::Feed {
                            file: events_name.to_string(),
                            source,
                        })
                    }
                }
            }
            stats.events = reader.stats();
            for &line in reader.malformed_lines() {
                stats.note_malformed(&events_name, line);
            }
        }
        // In-memory bytes and mapped pages share one walk: a
        // `SegmentView` hands out the same `&[u8]` segments an owned
        // buffer does, just borrowed from the page cache.
        feed @ (DayFeed::Binary(_) | DayFeed::Mapped(_)) => {
            binary_events = true;
            let bytes: &[u8] = match &feed {
                DayFeed::Binary(bytes) => bytes,
                DayFeed::Mapped(view) => {
                    stats.bytes_mapped += view.len() as u64;
                    view.bytes()
                }
                _ => unreachable!("outer match is binary or mapped"),
            };
            scratch.events.clear();
            let mut consumed = 0usize;
            for seg in columnar::split_segments(bytes) {
                match seg {
                    Ok(seg) => {
                        consumed += seg.len();
                        match columnar::decode_events_into(
                            seg,
                            &mut scratch.dict,
                            &mut scratch.seg_events,
                        ) {
                            Ok(header) => {
                                stats.events.lines_read += header.records as u64;
                                scratch.events.extend_from_slice(&scratch.seg_events);
                            }
                            Err(cause) => {
                                let claimed = claimed_records(seg);
                                stats.events.lines_read += claimed;
                                stats.events.malformed += claimed;
                                stats.note_malformed(&events_name, 0);
                                if policy == MalformedPolicy::FailFast {
                                    return Err(segment_feed_error(
                                        events_name.to_string(),
                                        cause,
                                    ));
                                }
                            }
                        }
                    }
                    Err(cause) => {
                        // Damaged envelope: nothing past this point in
                        // the file can be framed, so the rest of the
                        // feed is charged as one claim and the walk
                        // stops (the splitter fuses anyway).
                        let claimed = claimed_records(&bytes[consumed..]);
                        stats.events.lines_read += claimed;
                        stats.events.malformed += claimed;
                        stats.note_malformed(&events_name, 0);
                        if policy == MalformedPolicy::FailFast {
                            return Err(segment_feed_error(
                                events_name.to_string(),
                                cause,
                            ));
                        }
                        break;
                    }
                }
            }
        }
        DayFeed::Stream(file, _) => {
            binary_events = true;
            scratch.events.clear();
            let mut reader = columnar::SegmentBlockReader::new(file);
            loop {
                match reader.next_segment() {
                    Ok(Some(seg)) => match columnar::decode_events_into(
                        seg,
                        &mut scratch.dict,
                        &mut scratch.seg_events,
                    ) {
                        Ok(header) => {
                            stats.events.lines_read += header.records as u64;
                            scratch.events.extend_from_slice(&scratch.seg_events);
                        }
                        Err(cause) => {
                            let claimed = claimed_records(seg);
                            stats.events.lines_read += claimed;
                            stats.events.malformed += claimed;
                            stats.note_malformed(&events_name, 0);
                            if policy == MalformedPolicy::FailFast {
                                return Err(segment_feed_error(
                                    events_name.to_string(),
                                    cause,
                                ));
                            }
                        }
                    },
                    Ok(None) => break,
                    Err(SegmentStreamError::Io(e)) => return Err(ReplayError::Io(e)),
                    Err(SegmentStreamError::Format(cause)) => {
                        // The streamer cannot frame the rest of the
                        // file; without the bytes in hand there is no
                        // header claim to charge, so the damage itself
                        // is one bad unit.
                        stats.events.lines_read += 1;
                        stats.events.malformed += 1;
                        stats.note_malformed(&events_name, 0);
                        if policy == MalformedPolicy::FailFast {
                            return Err(segment_feed_error(
                                events_name.to_string(),
                                cause,
                            ));
                        }
                        break;
                    }
                }
            }
            stats.bytes_streamed += reader.bytes_read();
        }
    }
    if binary_events {
        let mut kept = 0usize;
        for i in 0..scratch.events.len() {
            let ev = scratch.events[i];
            match bounds.check(&ev) {
                Ok(()) => {
                    scratch.events[kept] = ev;
                    kept += 1;
                    stats.events.parsed += 1;
                }
                Err(violation) => {
                    stats.events.malformed += 1;
                    stats.note_malformed(&events_name, i as u64 + 1);
                    if policy == MalformedPolicy::FailFast {
                        return Err(ReplayError::Feed {
                            file: events_name.to_string(),
                            source: FeedError::Malformed {
                                line: i as u64 + 1,
                                reason: violation.to_string(),
                            },
                        });
                    }
                }
            }
        }
        scratch.events.truncate(kept);
    }

    let mut block = PhaseABlock::new(world.num_days(), vec![day], num_subs);
    let feb_night = feb_set[day as usize];

    // Segment into per-subscriber runs (the exporter writes one
    // contiguous run per subscriber, in subscriber order) and drive the
    // identical ingestion the in-memory phase A uses.
    let events = &scratch.events;
    let seen = &mut scratch.seen;
    seen.clear();
    let mut i = 0usize;
    while i < events.len() {
        let anon = events[i].anon_id;
        let mut j = i + 1;
        while j < events.len() && events[j].anon_id == anon {
            j += 1;
        }
        let run_events = &events[i..j];
        i = j;

        if !seen.insert(anon) {
            // The subscriber's run already ended; ingesting a second
            // run would double-count the user-day.
            stats.out_of_order += run_events.len() as u64;
            continue;
        }
        // Drop events that contradict the stream invariants the dwell
        // reconstruction relies on (wrong day, minute regression).
        let mut is_clean = true;
        let mut prev_minute = 0u16;
        for (k, ev) in run_events.iter().enumerate() {
            if ev.day != day || (k > 0 && ev.minute < prev_minute) {
                is_clean = false;
                break;
            }
            prev_minute = ev.minute;
        }
        let cleaned: Vec<SignalingEvent>;
        let run_slice: &[SignalingEvent] = if is_clean {
            run_events
        } else {
            let mut v = Vec::with_capacity(run_events.len());
            let mut prev = 0u16;
            for ev in run_events {
                if ev.day != day || (!v.is_empty() && ev.minute < prev) {
                    stats.out_of_order += 1;
                    continue;
                }
                prev = ev.minute;
                v.push(*ev);
            }
            cleaned = v;
            &cleaned
        };
        if run_slice.is_empty() {
            continue;
        }
        let Some(&sub_idx) = anon_index.get(&anon) else {
            stats.unknown_user += run_slice.len() as u64;
            continue;
        };
        let sub_idx = sub_idx as usize;
        let Some((_, groups)) = roster.members[sub_idx] else {
            stats.filtered += run_slice.len() as u64;
            continue;
        };
        stats.ingested += run_slice.len() as u64;
        stats.user_days += 1;

        scratch.ingest.segments.clear();
        reconstruct_dwell_into(run_slice, &mut scratch.ingest.dwell_records);
        for rec in &scratch.ingest.dwell_records {
            let cell = world.topo.cell(rec.cell);
            scratch.ingest.segments.push(SiteDwell {
                bin: rec.bin,
                site: cell.site.0,
                minutes: rec.minutes,
                rat: cell.rat,
            });
        }
        run::ingest_user_day(
            world, &mut block, &mut scratch.ingest, sub_idx, num_subs, 0, day,
            feb_night, anon, &groups,
        );
    }

    // --- KPI feed → per-day KPI table ----------------------------------
    // One reused hours buffer tracks the current cell's samples (the
    // exporter writes each cell's 24 lines consecutively); rejection
    // causes stay unformatted unless FailFast surfaces them. Both
    // formats run the identical semantic checks and grouping — the
    // text path adds only JSON parsing in front.
    enum KpiReject {
        Parse(serde_json::Error),
        DayOutOfRange(u16),
        CellOutOfRange(u32),
        WrongFile(u16),
    }
    let check_kpi = |r: &KpiHourRecord| -> Result<(), KpiReject> {
        if r.day >= bounds.num_days {
            Err(KpiReject::DayOutOfRange(r.day))
        } else if r.cell >= bounds.num_cells {
            Err(KpiReject::CellOutOfRange(r.cell))
        } else if r.day != day {
            Err(KpiReject::WrongFile(r.day))
        } else {
            Ok(())
        }
    };
    let reject_reason = |reject: &KpiReject| -> String {
        match reject {
            KpiReject::Parse(e) => e.to_string(),
            KpiReject::DayOutOfRange(d) => {
                format!("day {d} out of range (study has {} days)", bounds.num_days)
            }
            KpiReject::CellOutOfRange(c) => {
                format!("cell {c} out of range (topology has {} cells)", bounds.num_cells)
            }
            KpiReject::WrongFile(d) => {
                format!("day {d} in the feed file of day {day}")
            }
        }
    };
    let mut kpi = KpiTable::new();
    let mut current_cell: Option<u32> = None;
    let hours = &mut scratch.hours;
    hours.clear();
    let flush = |current_cell: &mut Option<u32>,
                 hours: &mut Vec<HourlyKpiSample>,
                 kpi: &mut KpiTable| {
        if let Some(cell) = current_cell.take() {
            if let Some(rec) = CellDayMetrics::from_hourly(cell, day, hours) {
                kpi.push(rec);
            }
            hours.clear();
        }
    };
    let fold = |r: &KpiHourRecord,
                current_cell: &mut Option<u32>,
                hours: &mut Vec<HourlyKpiSample>,
                kpi: &mut KpiTable| {
        match *current_cell {
            Some(cell) if cell == r.cell => hours.push(r.sample),
            _ => {
                flush(current_cell, hours, kpi);
                *current_cell = Some(r.cell);
                hours.push(r.sample);
            }
        }
    };
    // One record counter runs across segments, so malformed positions
    // stay 1-based over the whole feed regardless of how the encoder
    // split it (a single-segment file numbers exactly as before).
    let mut rec_no = 0u64;
    macro_rules! fold_kpi_records {
        () => {
            for idx in 0..scratch.kpi_records.len() {
                let r = scratch.kpi_records[idx];
                rec_no += 1;
                match check_kpi(&r) {
                    Ok(()) => {
                        stats.kpi.parsed += 1;
                        fold(&r, &mut current_cell, &mut *hours, &mut kpi);
                    }
                    Err(reject) => {
                        stats.kpi.malformed += 1;
                        stats.note_malformed(&kpi_name, rec_no);
                        if policy == MalformedPolicy::FailFast {
                            return Err(ReplayError::Feed {
                                file: kpi_name.to_string(),
                                source: FeedError::Malformed {
                                    line: rec_no,
                                    reason: reject_reason(&reject),
                                },
                            });
                        }
                    }
                }
            }
        };
    }
    match kpi_feed {
        DayFeed::Jsonl(text) => {
            for (idx, line) in text.lines().enumerate() {
                stats.kpi.lines_read += 1;
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    stats.kpi.blank += 1;
                    continue;
                }
                let checked = parse_line::<KpiHourRecord>(trimmed)
                    .map_err(KpiReject::Parse)
                    .and_then(|r| match check_kpi(&r) {
                        Ok(()) => Ok(r),
                        Err(reject) => Err(reject),
                    });
                match checked {
                    Ok(r) => {
                        stats.kpi.parsed += 1;
                        fold(&r, &mut current_cell, &mut *hours, &mut kpi);
                    }
                    Err(reject) => {
                        stats.kpi.malformed += 1;
                        stats.note_malformed(&kpi_name, idx as u64 + 1);
                        if policy == MalformedPolicy::FailFast {
                            return Err(ReplayError::Feed {
                                file: kpi_name.to_string(),
                                source: FeedError::Malformed {
                                    line: idx as u64 + 1,
                                    reason: reject_reason(&reject),
                                },
                            });
                        }
                    }
                }
            }
        }
        feed @ (DayFeed::Binary(_) | DayFeed::Mapped(_)) => {
            let bytes: &[u8] = match &feed {
                DayFeed::Binary(bytes) => bytes,
                DayFeed::Mapped(view) => {
                    stats.bytes_mapped += view.len() as u64;
                    view.bytes()
                }
                _ => unreachable!("outer match is binary or mapped"),
            };
            let mut consumed = 0usize;
            for seg in columnar::split_segments(bytes) {
                match seg {
                    Ok(seg) => {
                        consumed += seg.len();
                        match feedfmt::decode_kpi_into(
                            seg,
                            &mut scratch.dict,
                            &mut scratch.kpi_records,
                        ) {
                            Ok(header) => {
                                stats.kpi.lines_read += header.records as u64;
                                fold_kpi_records!();
                            }
                            Err(cause) => {
                                let claimed = claimed_records(seg);
                                stats.kpi.lines_read += claimed;
                                stats.kpi.malformed += claimed;
                                stats.note_malformed(&kpi_name, 0);
                                if policy == MalformedPolicy::FailFast {
                                    return Err(segment_feed_error(
                                        kpi_name.to_string(),
                                        cause,
                                    ));
                                }
                            }
                        }
                    }
                    Err(cause) => {
                        let claimed = claimed_records(&bytes[consumed..]);
                        stats.kpi.lines_read += claimed;
                        stats.kpi.malformed += claimed;
                        stats.note_malformed(&kpi_name, 0);
                        if policy == MalformedPolicy::FailFast {
                            return Err(segment_feed_error(kpi_name.to_string(), cause));
                        }
                        break;
                    }
                }
            }
        }
        DayFeed::Stream(file, _) => {
            let mut reader = columnar::SegmentBlockReader::new(file);
            loop {
                match reader.next_segment() {
                    Ok(Some(seg)) => match feedfmt::decode_kpi_into(
                        seg,
                        &mut scratch.dict,
                        &mut scratch.kpi_records,
                    ) {
                        Ok(header) => {
                            stats.kpi.lines_read += header.records as u64;
                            fold_kpi_records!();
                        }
                        Err(cause) => {
                            let claimed = claimed_records(seg);
                            stats.kpi.lines_read += claimed;
                            stats.kpi.malformed += claimed;
                            stats.note_malformed(&kpi_name, 0);
                            if policy == MalformedPolicy::FailFast {
                                return Err(segment_feed_error(
                                    kpi_name.to_string(),
                                    cause,
                                ));
                            }
                        }
                    },
                    Ok(None) => break,
                    Err(SegmentStreamError::Io(e)) => return Err(ReplayError::Io(e)),
                    Err(SegmentStreamError::Format(cause)) => {
                        stats.kpi.lines_read += 1;
                        stats.kpi.malformed += 1;
                        stats.note_malformed(&kpi_name, 0);
                        if policy == MalformedPolicy::FailFast {
                            return Err(segment_feed_error(kpi_name.to_string(), cause));
                        }
                        break;
                    }
                }
            }
            stats.bytes_streamed += reader.bytes_read();
        }
    }
    flush(&mut current_cell, &mut *hours, &mut kpi);
    stats.cell_days = kpi.len() as u64;

    Ok(DayOutput { block, kpi, stats })
}

/// Read the daily voice feed; every study day must be present after
/// policy handling.
fn read_voice_feed(
    dir: &Path,
    num_days: u16,
    policy: MalformedPolicy,
    options: ReplayOptions,
    report: &mut ReplayReport,
) -> Result<Vec<f64>, ReplayError> {
    let bin_path = dir.join(VOICE_BIN_FILE);
    let mut voice: Vec<Option<f64>> = vec![None; num_days as usize];

    // Shared record fold: bounds-check one decoded segment's records
    // under the policy, with a feed-wide running record number.
    let mut rec_no = 0u64;
    macro_rules! fold_voice_records {
        ($records:expr, $file_name:expr) => {
            for r in $records.iter() {
                rec_no += 1;
                if r.day >= num_days {
                    report.voice.malformed += 1;
                    report.note_malformed($file_name, rec_no);
                    if policy == MalformedPolicy::FailFast {
                        return Err(ReplayError::Feed {
                            file: $file_name.to_string(),
                            source: FeedError::Malformed {
                                line: rec_no,
                                reason: format!(
                                    "day {} out of range (study has {num_days} days)",
                                    r.day
                                ),
                            },
                        });
                    }
                    continue;
                }
                report.voice.parsed += 1;
                voice[r.day as usize] = Some(r.off_net_voice_mb);
            }
        };
    }

    // One in-memory segment walk serves both mapped views and binary
    // bytes sniffed under the JSONL name: frame, decode, and account
    // damage under the policy.
    macro_rules! walk_voice_segments {
        ($bytes:expr, $file_name:expr) => {{
            let bytes: &[u8] = $bytes;
            let mut records = Vec::new();
            let mut consumed = 0usize;
            for seg in columnar::split_segments(bytes) {
                match seg {
                    Ok(seg) => {
                        consumed += seg.len();
                        match feedfmt::decode_voice_into(seg, &mut records) {
                            Ok(header) => {
                                report.voice.lines_read += header.records as u64;
                                fold_voice_records!(records, $file_name);
                            }
                            Err(cause) => {
                                let claimed = claimed_records(seg);
                                report.voice.lines_read += claimed;
                                report.voice.malformed += claimed;
                                report.note_malformed($file_name, 0);
                                if policy == MalformedPolicy::FailFast {
                                    return Err(segment_feed_error(
                                        $file_name.to_string(),
                                        cause,
                                    ));
                                }
                            }
                        }
                    }
                    Err(cause) => {
                        let claimed = claimed_records(&bytes[consumed..]);
                        report.voice.lines_read += claimed;
                        report.voice.malformed += claimed;
                        report.note_malformed($file_name, 0);
                        if policy == MalformedPolicy::FailFast {
                            return Err(segment_feed_error(
                                $file_name.to_string(),
                                cause,
                            ));
                        }
                        break;
                    }
                }
            }
        }};
    }

    if bin_path.exists() && options.mmap_segments {
        // Zero-copy path: map the file and walk the mapped pages.
        let file_name: Arc<str> = Arc::from(VOICE_BIN_FILE);
        let view = SegmentView::open(&bin_path)?;
        report.files_read += 1;
        report.bytes_read += view.len() as u64;
        report.bytes_mapped += view.len() as u64;
        walk_voice_segments!(view.bytes(), &file_name);
        return finish_voice(voice);
    }

    if bin_path.exists() {
        // Stream the binary feed segment by segment, never holding the
        // whole file.
        let file_name: Arc<str> = Arc::from(VOICE_BIN_FILE);
        let file = fs::File::open(&bin_path)?;
        report.files_read += 1;
        report.bytes_read += file.metadata()?.len();
        let mut records = Vec::new();
        let mut reader = columnar::SegmentBlockReader::new(file);
        loop {
            match reader.next_segment() {
                Ok(Some(seg)) => match feedfmt::decode_voice_into(seg, &mut records) {
                    Ok(header) => {
                        report.voice.lines_read += header.records as u64;
                        fold_voice_records!(records, &file_name);
                    }
                    Err(cause) => {
                        let claimed = claimed_records(seg);
                        report.voice.lines_read += claimed;
                        report.voice.malformed += claimed;
                        report.note_malformed(&file_name, 0);
                        if policy == MalformedPolicy::FailFast {
                            return Err(segment_feed_error(file_name.to_string(), cause));
                        }
                    }
                },
                Ok(None) => break,
                Err(SegmentStreamError::Io(e)) => return Err(ReplayError::Io(e)),
                Err(SegmentStreamError::Format(cause)) => {
                    report.voice.lines_read += 1;
                    report.voice.malformed += 1;
                    report.note_malformed(&file_name, 0);
                    if policy == MalformedPolicy::FailFast {
                        return Err(segment_feed_error(file_name.to_string(), cause));
                    }
                    break;
                }
            }
        }
        report.bytes_streamed += reader.bytes_read();
        return finish_voice(voice);
    }

    let file_name: Arc<str> = Arc::from(VOICE_FILE);
    let bytes = fs::read(dir.join(VOICE_FILE))?;
    report.files_read += 1;
    report.bytes_read += bytes.len() as u64;

    if columnar::looks_like_segment(&bytes) {
        // A binary feed stored under the JSONL name: walk its segments
        // in memory.
        walk_voice_segments!(&bytes, &file_name);
        return finish_voice(voice);
    }

    let text = String::from_utf8(bytes).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{file_name}: not UTF-8 and not a binary segment: {e}"),
        )
    })?;
    for (idx, line) in text.lines().enumerate() {
        report.voice.lines_read += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            report.voice.blank += 1;
            continue;
        }
        // Rejection causes stay unformatted; only FailFast renders them.
        enum VoiceReject {
            Parse(serde_json::Error),
            DayOutOfRange(u16),
        }
        let checked = parse_line::<VoiceDayRecord>(trimmed)
            .map_err(VoiceReject::Parse)
            .and_then(|r| {
                if r.day >= num_days {
                    Err(VoiceReject::DayOutOfRange(r.day))
                } else {
                    Ok(r)
                }
            });
        match checked {
            Ok(r) => {
                report.voice.parsed += 1;
                voice[r.day as usize] = Some(r.off_net_voice_mb);
            }
            Err(reject) => {
                report.voice.malformed += 1;
                report.note_malformed(&file_name, idx as u64 + 1);
                if policy == MalformedPolicy::FailFast {
                    let reason = match reject {
                        VoiceReject::Parse(e) => e.to_string(),
                        VoiceReject::DayOutOfRange(d) => {
                            format!("day {d} out of range (study has {num_days} days)")
                        }
                    };
                    return Err(ReplayError::Feed {
                        file: VOICE_FILE.to_string(),
                        source: FeedError::Malformed {
                            line: idx as u64 + 1,
                            reason,
                        },
                    });
                }
            }
        }
    }
    finish_voice(voice)
}

/// Every study day must be present after policy handling.
fn finish_voice(voice: Vec<Option<f64>>) -> Result<Vec<f64>, ReplayError> {
    voice
        .into_iter()
        .enumerate()
        .map(|(d, v)| {
            v.ok_or_else(|| {
                ReplayError::Manifest(format!("voice feed missing day {d}"))
            })
        })
        .collect()
}

/// Compare two datasets field by field; `Some(field)` names the first
/// divergence, `None` means bit-for-bit equal.
pub fn dataset_divergence(a: &StudyDataset, b: &StudyDataset) -> Option<&'static str> {
    macro_rules! check {
        ($field:ident) => {
            if a.$field != b.$field {
                return Some(stringify!($field));
            }
        };
    }
    check!(clock);
    check!(users);
    check!(gyration);
    check!(entropy);
    check!(gyration_dist);
    check!(gyration_by_bin);
    check!(kpi);
    check!(cell_geo);
    check!(matrix);
    check!(home_validation);
    check!(interconnect_daily);
    check!(national_voice_daily);
    check!(cases);
    check!(rat_dwell_share);
    check!(study_population);
    check!(homes_detected);
    check!(declaration);
    check!(full_restriction);
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// Every field of a KPI record as bits, so `-0.0` differs from `0.0`.
    fn kpi_bits(r: &KpiHourRecord) -> Vec<u64> {
        let s = &r.sample;
        let mut bits = vec![r.cell as u64, r.day as u64, r.hour as u64];
        bits.extend(
            [
                s.dl_volume_mb,
                s.ul_volume_mb,
                s.active_dl_users,
                s.connected_users,
                s.user_dl_throughput_mbps,
                s.tti_utilization,
                s.voice_volume_mb,
                s.voice_users,
                s.voice_ul_loss,
                s.voice_dl_loss,
            ]
            .map(f64::to_bits),
        );
        bits
    }

    fn voice_bits(r: &VoiceDayRecord) -> Vec<u64> {
        vec![r.day as u64, r.off_net_voice_mb.to_bits()]
    }

    /// The codec's reading of `line` is `serde_json::from_str`'s: the
    /// same `Ok`/`Err`, bit-equal fields, the same error text.
    fn assert_parse_parity<T: JsonlRecord + fmt::Debug>(line: &str, bits: fn(&T) -> Vec<u64>) {
        match (parse_line::<T>(line), serde_json::from_str::<T>(line)) {
            (Ok(a), Ok(b)) => assert_eq!(bits(&a), bits(&b), "{line}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{line}"),
            (a, b) => panic!("{line}: codec {a:?}, serde_json {b:?}"),
        }
    }

    /// The codec writes `record` as `serde_json` does; a record it
    /// reads back on the fast path is bit-equal.
    fn assert_write_parity<T: JsonlRecord + Serialize>(record: &T, bits: fn(&T) -> Vec<u64>) {
        let mut line = Vec::new();
        write_line(record, &mut line);
        let expect = serde_json::to_string(record).unwrap() + "\n";
        assert_eq!(String::from_utf8(line).unwrap(), expect);
        let line = expect.trim_end();
        let mut scan = LineScanner::new(line);
        if let Some(back) = T::scan_json(&mut scan) {
            assert!(scan.at_end(), "{line}");
            assert_eq!(bits(&back), bits(record), "{line}");
        }
    }

    /// Non-canonical spellings of `line`: the value of `key` replaced by
    /// each of a list of values, plus whitespace, reordered, escaped,
    /// duplicated and trailing variants.
    fn perturbations(line: &str, key: &str) -> Vec<String> {
        const VALUES: [&str; 16] = [
            "-0", "-0.0", "0", "-1", "007", "1e5", "1E-5", "2.", "1e400", "255",
            "256", "65536", "4294967296", "18446744073709551616", "null", "\"1\"",
        ];
        let k = format!("\"{key}\":");
        let at = line.find(&k).unwrap() + k.len();
        let end = at + line[at..].find([',', '}']).unwrap();
        let value = &line[at..end];
        let body = &line[1..line.len() - 1];
        let (first, rest) = body.split_once(',').unwrap();
        let escaped = format!("\"\\u{:04x}{}\":", key.as_bytes()[0], &key[1..]);
        let mut out: Vec<String> = VALUES
            .iter()
            .map(|v| format!("{}{v}{}", &line[..at], &line[end..]))
            .collect();
        out.extend([
            line.replace(':', ": "),
            line.replace(',', "\t,"),
            format!("{{{rest},{first}}}"),
            line.replacen(&k, &escaped, 1),
            format!("{{{body},{k}{value}}}"),
            format!("{{{k}7,{body}}}"),
            format!("{line}x"),
            format!("{line} "),
            line[..line.len() - 1].to_string(),
        ]);
        out
    }

    /// Records at the edges of the `f64` writer: subnormal, `MAX`,
    /// integer-valued, beyond `u64`, non-finite, `-0.0` and negative.
    fn edge_kpi_records() -> Vec<KpiHourRecord> {
        const EDGES: [f64; 12] = [
            f64::MIN_POSITIVE / 4.0,
            f64::MAX,
            7.0,
            0.0,
            1e20,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            -2.5,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
        ];
        (0..EDGES.len())
            .map(|i| {
                let v = |j: usize| EDGES[(i + j) % EDGES.len()];
                KpiHourRecord {
                    cell: if i % 2 == 0 { u32::MAX } else { i as u32 },
                    day: if i % 3 == 0 { u16::MAX } else { 0 },
                    hour: if i % 4 == 0 { u8::MAX } else { 23 },
                    sample: HourlyKpiSample {
                        dl_volume_mb: v(0),
                        ul_volume_mb: v(1),
                        active_dl_users: v(2),
                        connected_users: v(3),
                        user_dl_throughput_mbps: v(4),
                        tti_utilization: v(5),
                        voice_volume_mb: v(6),
                        voice_users: v(7),
                        voice_ul_loss: v(8),
                        voice_dl_loss: v(9),
                    },
                }
            })
            .collect()
    }

    #[test]
    fn kpi_record_roundtrips_exact_f64() {
        let rec = KpiHourRecord {
            cell: 812,
            day: 37,
            hour: 23,
            sample: HourlyKpiSample {
                dl_volume_mb: 0.1 + 0.2, // classic non-representable sum
                ul_volume_mb: 1.0 / 3.0,
                active_dl_users: 2.5e-17,
                connected_users: 123456.789,
                user_dl_throughput_mbps: f64::MIN_POSITIVE,
                tti_utilization: 0.999999999999999,
                voice_volume_mb: 7.0,
                voice_users: -0.0,
                voice_ul_loss: std::f64::consts::PI,
                voice_dl_loss: 1e300,
            },
        };
        let mut line = Vec::new();
        write_line(&rec, &mut line);
        let back: KpiHourRecord =
            parse_line(std::str::from_utf8(&line).unwrap().trim_end()).unwrap();
        assert_eq!(kpi_bits(&back), kpi_bits(&rec));
    }

    /// Write parity, a fast-path read back, and read parity on every
    /// perturbation of `rec`'s line.
    fn line_parity_kpi(rec: &KpiHourRecord) {
        assert_write_parity(rec, kpi_bits);
        let line = serde_json::to_string(rec).unwrap();
        for key in ["cell", "day", "hour", "sample", "dl_volume_mb", "voice_dl_loss"] {
            for variant in perturbations(&line, key) {
                assert_parse_parity::<KpiHourRecord>(&variant, kpi_bits);
            }
        }
    }

    #[test]
    fn kpi_codec_matches_serde_json_at_the_edges() {
        for rec in edge_kpi_records() {
            line_parity_kpi(&rec);
        }
    }

    #[test]
    fn voice_record_roundtrips_exact_f64() {
        for v in [0.1 + 0.7, -0.0, 0.0, 1e20, f64::MAX, f64::MIN_POSITIVE / 8.0, -3.5, f64::NAN] {
            let rec = VoiceDayRecord { day: 99, off_net_voice_mb: v };
            assert_write_parity(&rec, voice_bits);
            let line = serde_json::to_string(&rec).unwrap();
            if v.is_finite() {
                let back: VoiceDayRecord = parse_line(&line).unwrap();
                assert_eq!(voice_bits(&back), voice_bits(&rec), "{line}");
            }
            for key in ["day", "off_net_voice_mb"] {
                for variant in perturbations(&line, key) {
                    assert_parse_parity::<VoiceDayRecord>(&variant, voice_bits);
                }
            }
        }
    }

    proptest! {
        /// Arbitrary bit patterns in every `f64` field: the codec writes
        /// what `serde_json` writes and reads every perturbation alike.
        #[test]
        fn kpi_codec_matches_serde_json(
            ids in (0u32..u32::MAX, 0u16..u16::MAX, 0u8..u8::MAX),
            bits in prop::collection::vec(0u64..u64::MAX, 10..11),
        ) {
            let f = |i: usize| f64::from_bits(bits[i]);
            let rec = KpiHourRecord {
                cell: ids.0,
                day: ids.1,
                hour: ids.2,
                sample: HourlyKpiSample {
                    dl_volume_mb: f(0),
                    ul_volume_mb: f(1),
                    active_dl_users: f(2),
                    connected_users: f(3),
                    user_dl_throughput_mbps: f(4),
                    tti_utilization: f(5),
                    voice_volume_mb: f(6),
                    voice_users: f(7),
                    voice_ul_loss: f(8),
                    voice_dl_loss: f(9),
                },
            };
            line_parity_kpi(&rec);
            // The same record with every field made non-negative and
            // finite takes the fast path.
            let abs = |v: f64| if v.is_finite() { v.abs() } else { 1.5 };
            let s = rec.sample;
            let rec = KpiHourRecord {
                sample: HourlyKpiSample {
                    dl_volume_mb: abs(s.dl_volume_mb),
                    ul_volume_mb: abs(s.ul_volume_mb),
                    active_dl_users: abs(s.active_dl_users),
                    connected_users: abs(s.connected_users),
                    user_dl_throughput_mbps: abs(s.user_dl_throughput_mbps),
                    tti_utilization: abs(s.tti_utilization),
                    voice_volume_mb: abs(s.voice_volume_mb),
                    voice_users: abs(s.voice_users),
                    voice_ul_loss: abs(s.voice_ul_loss),
                    voice_dl_loss: abs(s.voice_dl_loss),
                },
                ..rec
            };
            let line = serde_json::to_string(&rec).unwrap();
            let fast = KpiHourRecord::scan_json(&mut LineScanner::new(&line));
            prop_assert_eq!(fast.map(|r| kpi_bits(&r)), Some(kpi_bits(&rec)));
        }
    }

    #[test]
    fn report_balances_hold_for_defaults() {
        let report = ReplayReport::default();
        assert!(report.lines_balance());
        assert!(report.events_balance());
        // Display never panics.
        let _ = report.to_string();
    }

    #[test]
    fn feed_file_names_are_zero_padded() {
        assert_eq!(events_file_name(3), "events_d003.jsonl");
        assert_eq!(kpi_file_name(99), "kpi_d099.jsonl");
    }
}
