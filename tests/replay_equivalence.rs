//! Feed-replay equivalence (the tentpole acceptance test): exporting a
//! study's feeds to disk and streaming them back through the replay
//! pipeline must reproduce the in-memory [`StudyDataset`] bit for bit,
//! and the replay report must account for every feed line.
//!
//! The `small` preset's JSONL feed set is about 15 GB, so the test
//! exports it day by day as the replay reads it
//! ([`FeedExporter`] behind [`replay_study_staged`]) and removes each
//! day's files once they are read: every day still goes through the
//! exporter's files and the reader's JSONL path, with two days on disk
//! at most.

mod common;

use cellscope::exec::Executor;
use cellscope::scenario::replay::{
    dataset_divergence, events_file_name, kpi_file_name, replay_study_staged, FeedExporter,
    ReplayConfig,
};
use cellscope::scenario::{ScenarioConfig, World};
use std::path::{Path, PathBuf};

/// Prefix of the feed directory, followed by the pid of the test
/// process that wrote it.
const SCRATCH_PREFIX: &str = "cellscope_feeds_equiv_";

/// The feed directory, under cargo's per-package test tmp dir. Removed when dropped, so a failed
/// export or a panicking assertion does not leave it behind.
struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Take away the directories of earlier runs whose process is
    /// gone, then claim this process's directory.
    fn create() -> ScratchDir {
        remove_stale_scratch();
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{SCRATCH_PREFIX}{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Remove the feed directories of runs whose process is gone (a run
/// killed before its guard dropped). Liveness is read from procfs;
/// without it nothing is removed.
fn remove_stale_scratch() {
    if !Path::new("/proc/self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(env!("CARGO_TARGET_TMPDIR")) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix(SCRATCH_PREFIX))
            .and_then(|rest| rest.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                std::fs::remove_dir_all(entry.path()).ok();
            }
        }
    }
}

#[test]
fn replayed_dataset_is_bit_identical_to_in_memory() {
    let cfg = ScenarioConfig::small(42);
    let world = World::build(&cfg);
    let scratch = ScratchDir::create();
    let dir = &scratch.0;
    let mut exporter = FeedExporter::new(&cfg, &world, dir).expect("start export");
    exporter.write_manifest().expect("write manifest");
    let manifest = *exporter.manifest();
    assert_eq!(manifest.seed, 42);
    assert_eq!(manifest.num_days as usize, common::dataset().clock.num_days());

    // Before the reader opens day `d`: drop day `d - 1`'s files (read
    // in full already), then export day `d`.
    let rcfg = ReplayConfig::default();
    let mut exec = Executor::new(rcfg.threads);
    let (replayed, report) = replay_study_staged(&cfg, &world, dir, &rcfg, &mut exec, |day| {
        if let Some(prev) = day.checked_sub(1) {
            std::fs::remove_file(dir.join(events_file_name(prev)))?;
            std::fs::remove_file(dir.join(kpi_file_name(prev)))?;
        }
        exporter.export_day(day)
    })
    .expect("replay");
    drop(scratch);

    // The exact same analysis objects, fed from serialized JSONL feeds,
    // land on the exact same dataset.
    assert_eq!(dataset_divergence(common::dataset(), &replayed), None);

    // Counter invariants: every line and every parsed event lands in
    // exactly one accounting bucket.
    assert!(report.lines_balance(), "line accounting leaks:\n{report}");
    assert!(report.events_balance(), "event accounting leaks:\n{report}");
    assert!(report.events.lines_read > 0);
    assert_eq!(report.events.malformed, 0, "self-produced feeds are clean");
    assert_eq!(report.kpi.malformed, 0);
    assert_eq!(report.voice.malformed, 0);
    assert_eq!(report.events_out_of_order, 0);
    assert_eq!(report.events_unknown_user, 0);
    // The feed carries every subscriber; the study filter drops some.
    assert!(report.events_filtered > 0, "probe-faithful feed should carry filtered users");
    assert!(report.events_ingested > 0);
    assert_eq!(report.user_days, replayed_user_days(&report));
    assert_eq!(
        report.cell_days as usize,
        replayed.kpi.len(),
        "every rebuilt cell-day is in the table"
    );
    // Reader stage opened events + KPI per day, plus the voice feed.
    assert_eq!(
        report.files_read,
        2 * manifest.num_days as u64 + 1
    );
    assert!(report.bytes_read > 0);
    assert_eq!(report.voice.parsed, manifest.num_days as u64);
}

fn replayed_user_days(report: &cellscope::scenario::replay::ReplayReport) -> u64 {
    // user_days is also the workers' day-task event totals' companion:
    // it must be consistent with per-worker sums.
    let worker_events: u64 = report.workers.iter().map(|w| w.events_ingested).sum();
    assert_eq!(worker_events, report.events_ingested);
    report.user_days
}
