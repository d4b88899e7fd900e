//! Feed-format benchmark: JSONL parse vs binary columnar decode.
//!
//! Generates one replay-realistic day of signaling events (every
//! subscriber of the configured scale, the exact stream `export_feeds`
//! writes for day 0), materializes it in both on-disk formats, and
//! measures the cost of turning each back into `Vec<SignalingEvent>` —
//! the work the replay pipeline's workers do per day task. Used two
//! ways:
//!
//! * `cargo bench -p cellscope-bench --bench feedfmt` — criterion
//!   timings plus hard assertions: the decode must be bit-identical to
//!   the parse and allocation-free in steady state, and the measured
//!   speedup must clear the floor the PR promised;
//! * `repro --bench-summary DIR_OR_PATH` — writes the JSON baseline
//!   `BENCH_feedfmt.json` next to the other bench summaries.

use cellscope_exec::Executor;
use cellscope_mobility::{DayTrajectory, TrajectoryGenerator};
use cellscope_scenario::replay::{
    dataset_divergence, export_feeds, replay_study_with, ReplayConfig, ReplayError,
    ReplayOptions,
};
use cellscope_scenario::{convert_feed_dir, ScenarioConfig, StudyDataset, World};
use cellscope_signaling::columnar::{self, DecodeScratch, SegmentView};
use cellscope_signaling::{write_events_jsonl, EventGenerator, EventReader, SignalingEvent};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::alloc_count;

/// The measured summary, serialized to `BENCH_feedfmt.json`.
#[derive(Debug, Clone, Serialize)]
pub struct FeedFmtSummary {
    /// Scenario scale label (`tiny`, `small`, …).
    pub scale: String,
    /// Events in the measured day feed.
    pub records: u64,
    /// JSONL representation size.
    pub jsonl_bytes: u64,
    /// Binary segment size.
    pub binary_bytes: u64,
    /// `jsonl_bytes / binary_bytes`.
    pub compression_ratio: f64,
    /// Timing repetitions (best-of is reported).
    pub iters: usize,
    /// Best-of seconds to parse the JSONL feed into events.
    pub jsonl_parse_seconds: f64,
    /// Best-of seconds to decode the binary segment into events.
    pub binary_decode_seconds: f64,
    /// `jsonl_parse_seconds / binary_decode_seconds`.
    pub decode_speedup: f64,
    /// Parse throughput, million events per second.
    pub jsonl_mrec_per_sec: f64,
    /// Decode throughput, million events per second.
    pub binary_mrec_per_sec: f64,
    /// Decoded events equal parsed events equal the generated stream.
    pub bit_identical: bool,
    /// Whether allocation counts were measured (counting allocator
    /// installed in this binary).
    pub counting_allocator: bool,
    /// Heap allocations of one decode into warm buffers; the format's
    /// zero-steady-state-allocation claim, measured. `None` when the
    /// binary did not install the counting allocator.
    pub decode_steady_allocs: Option<u64>,
    /// Best-of seconds to decode the same segment straight out of
    /// mmap'ed pages ([`SegmentView`]) — no read, no chunk buffer.
    pub mapped_decode_seconds: f64,
    /// Mapped decode throughput, million events per second.
    pub mapped_mrec_per_sec: f64,
    /// Steady-state allocations of one mapped decode into warm
    /// buffers; the zero-copy path's claim, measured.
    pub mapped_steady_allocs: Option<u64>,
    /// Mapped decode reproduces the generated stream exactly.
    pub mapped_bit_identical: bool,
    /// End-to-end streamed-vs-mapped replay comparison (filled by
    /// `repro --bench-summary` at the `small` preset; `None` in the
    /// criterion harness, which measures the decode paths only).
    pub replay: Option<ReplayCompare>,
}

/// End-to-end replay timing: the same binary feed directory through
/// the streaming reader and through mmap'ed [`SegmentView`]s, with the
/// datasets compared bit for bit.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayCompare {
    /// Scenario scale label the feeds were generated at.
    pub scale: String,
    /// Timing repetitions (best-of is reported).
    pub iters: usize,
    /// Binary feed bytes replayed per pass.
    pub bytes: u64,
    /// Best-of seconds for the streamed replay.
    pub streamed_seconds: f64,
    /// Best-of seconds for the mapped replay.
    pub mapped_seconds: f64,
    /// `streamed_seconds / mapped_seconds`.
    pub mapped_speedup: f64,
    /// The two replays produced bit-identical datasets.
    pub bit_identical: bool,
}

/// Generate the day-0 event stream of `config`'s world — the same
/// stream `export_feeds` serializes — as one in-memory `Vec`.
pub fn day0_events(config: &ScenarioConfig, world: &World) -> Vec<SignalingEvent> {
    let mut trajgen = TrajectoryGenerator::new(
        &world.geo,
        &world.behavior,
        world.clock,
        config.seed,
    );
    let mut eventgen = EventGenerator::new(
        &world.topo,
        &world.catalog,
        world.anonymizer,
        config.events,
    );
    let mut traj = DayTrajectory::default();
    let mut per_sub = Vec::new();
    let mut events = Vec::new();
    for sub in world.population.subscribers() {
        trajgen.generate_into(sub, 0, &mut traj);
        eventgen.generate_into(sub, &traj, &mut per_sub);
        events.extend_from_slice(&per_sub);
    }
    events
}

fn best_of(iters: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Build the world at `config`'s scale and measure both read paths.
pub fn run(config: &ScenarioConfig, scale_label: &str, iters: usize) -> FeedFmtSummary {
    let world = World::build(config);
    let events = day0_events(config, &world);

    let mut jsonl = Vec::new();
    write_events_jsonl(&mut jsonl, &events).expect("events serialize");
    let binary = columnar::encode_events(0, &events);

    // Reused output buffers for both paths: the comparison is the
    // per-record transformation cost, not first-call `Vec` growth.
    let mut parsed: Vec<SignalingEvent> = Vec::new();
    let mut decoded: Vec<SignalingEvent> = Vec::new();
    let mut scratch = DecodeScratch::default();

    let jsonl_parse_seconds = best_of(iters, || {
        parsed.clear();
        for item in EventReader::new(jsonl.as_slice()) {
            parsed.push(item.expect("clean feed parses"));
        }
    });
    let binary_decode_seconds = best_of(iters, || {
        columnar::decode_events_into(&binary, &mut scratch, &mut decoded)
            .expect("clean segment decodes");
    });

    // Steady-state allocation count of one decode into the now-warm
    // buffers. Probe `installed()` first — the probe itself allocates.
    let counting = alloc_count::installed();
    let before = alloc_count::allocations();
    columnar::decode_events_into(&binary, &mut scratch, &mut decoded)
        .expect("clean segment decodes");
    let decode_steady_allocs = if counting {
        Some(alloc_count::allocations() - before)
    } else {
        None
    };

    let bit_identical = parsed == events && decoded == events;

    // Same decode, straight out of mapped pages: write the segment to
    // a file, map it, and feed the mapped slice to the decoder.
    let tmp = std::env::temp_dir()
        .join(format!("cellscope_feedbench_{}.csb", std::process::id()));
    std::fs::write(&tmp, &binary).expect("write segment file");
    let view = SegmentView::open(&tmp).expect("map segment file");
    let mapped_decode_seconds = best_of(iters, || {
        columnar::decode_events_into(view.bytes(), &mut scratch, &mut decoded)
            .expect("mapped segment decodes");
    });
    let before = alloc_count::allocations();
    columnar::decode_events_into(view.bytes(), &mut scratch, &mut decoded)
        .expect("mapped segment decodes");
    let mapped_steady_allocs = if counting {
        Some(alloc_count::allocations() - before)
    } else {
        None
    };
    let mapped_bit_identical = decoded == events;
    drop(view);
    std::fs::remove_file(&tmp).ok();
    let n = events.len() as f64;
    FeedFmtSummary {
        scale: scale_label.to_string(),
        records: events.len() as u64,
        jsonl_bytes: jsonl.len() as u64,
        binary_bytes: binary.len() as u64,
        compression_ratio: jsonl.len() as f64 / binary.len().max(1) as f64,
        iters,
        jsonl_parse_seconds,
        binary_decode_seconds,
        decode_speedup: jsonl_parse_seconds / binary_decode_seconds.max(f64::MIN_POSITIVE),
        jsonl_mrec_per_sec: n / jsonl_parse_seconds.max(f64::MIN_POSITIVE) / 1e6,
        binary_mrec_per_sec: n / binary_decode_seconds.max(f64::MIN_POSITIVE) / 1e6,
        bit_identical,
        counting_allocator: counting,
        decode_steady_allocs,
        mapped_decode_seconds,
        mapped_mrec_per_sec: n / mapped_decode_seconds.max(f64::MIN_POSITIVE) / 1e6,
        mapped_steady_allocs,
        mapped_bit_identical,
        replay: None,
    }
}

/// Name prefix of [`replay_compare`]'s scratch directories, followed by
/// the owning process id.
const REPLAYCMP_PREFIX: &str = "cellscope_replaycmp_";

/// A scratch directory, removed when dropped: on every exit path,
/// errors and panics included.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Remove the scratch directories of earlier runs whose process is
/// gone (a killed run cannot drop its guard). Liveness is read from
/// procfs; without it nothing is removed.
fn remove_stale_scratch(tmp: &Path) {
    if !Path::new("/proc/self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(tmp) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix(REPLAYCMP_PREFIX))
            .and_then(|pid| pid.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                std::fs::remove_dir_all(entry.path()).ok();
            }
        }
    }
}

/// Replay one scale's full binary feed directory twice — streaming
/// reader vs mmap'ed [`SegmentView`]s — and report the wall-time
/// ratio. This is the end-to-end number the zero-copy read path is
/// judged by: same feeds, same workers, only the byte source differs.
/// The feeds live in `<temp dir>/cellscope_replaycmp_<pid>`, removed on
/// every exit path; a failed export, conversion or replay is returned.
pub fn replay_compare(
    config: &ScenarioConfig,
    scale_label: &str,
    iters: usize,
) -> Result<ReplayCompare, ReplayError> {
    let world = World::build(config);
    let tmp = std::env::temp_dir();
    remove_stale_scratch(&tmp);
    let base = ScratchDir(tmp.join(format!("{REPLAYCMP_PREFIX}{}", std::process::id())));
    let jsonl_dir = base.0.join("jsonl");
    let bin_dir = base.0.join("bin");
    export_feeds(config, &jsonl_dir)?;
    let bytes = convert_feed_dir(&jsonl_dir, &bin_dir)?.dst_bytes;
    // The replays read only the binary dir; drop the (much larger)
    // JSONL copy immediately so the scratch footprint is one format.
    std::fs::remove_dir_all(&jsonl_dir).ok();

    let mut exec = Executor::new(config.threads);
    let mut replay_best = |options: ReplayOptions| -> Result<(f64, StudyDataset), ReplayError> {
        let rcfg = ReplayConfig { options, ..ReplayConfig::default() };
        let mut best = f64::INFINITY;
        let mut dataset = None;
        for _ in 0..iters.max(1) {
            let t = Instant::now();
            let (replayed, _) = replay_study_with(config, &world, &bin_dir, &rcfg, &mut exec)?;
            best = best.min(t.elapsed().as_secs_f64());
            dataset = Some(replayed);
        }
        Ok((best, dataset.expect("at least one iteration")))
    };
    let (streamed_seconds, streamed) = replay_best(ReplayOptions::streamed())?;
    let (mapped_seconds, mapped) = replay_best(ReplayOptions::mapped())?;

    Ok(ReplayCompare {
        scale: scale_label.to_string(),
        iters,
        bytes,
        streamed_seconds,
        mapped_seconds,
        mapped_speedup: streamed_seconds / mapped_seconds.max(f64::MIN_POSITIVE),
        bit_identical: dataset_divergence(&streamed, &mapped).is_none(),
    })
}

/// Write the summary as pretty-printed JSON.
pub fn write_json(path: &std::path::Path, summary: &FeedFmtSummary) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(summary).expect("summary serializes");
    std::fs::write(path, json + "\n")
}
