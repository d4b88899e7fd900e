//! Corruption robustness for binary feed segments: every damage class
//! the format can detect must surface as a *typed* error under
//! [`MalformedPolicy::FailFast`] and as a *counted* (never silently
//! dropped) record under [`MalformedPolicy::SkipAndCount`], with the
//! damage location recorded in [`ReplayReport::malformed_at`].
//!
//! Five damage classes are exercised, mirroring the failure modes of a
//! real feed pipeline: a truncated download, a file that is not a
//! segment at all, bit rot in the payload, a segment from a future
//! format version, and a header that lies about its record count
//! (mid-column EOF).
//!
//! Every class runs through **both** binary byte sources — the
//! streaming reader and the mmap'ed `SegmentView` path — so damage in
//! a mapped file (including a mid-segment truncation, which shortens
//! the mapping itself) surfaces as the same typed error, never a
//! fault.

use cellscope::scenario::feedfmt::{convert_feed_dir, events_bin_name};
use cellscope::scenario::replay::{
    events_file_name, export_feeds, replay_study, MalformedAt, ReplayConfig,
    ReplayError, ReplayOptions, ReplayReport,
};
use cellscope::scenario::{run_study, ScenarioConfig, StudyDataset};
use cellscope::signaling::columnar::SegmentError;
use cellscope::signaling::{FeedError, MalformedPolicy};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Tiny-but-real scenario (same shape as the determinism suite).
fn micro(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny(seed);
    cfg.population.num_subscribers = 500;
    cfg
}

struct Fixture {
    cfg: ScenarioConfig,
    clean: StudyDataset,
    jsonl_dir: PathBuf,
    bin_dir: PathBuf,
}

/// Prefix of every directory this suite writes, followed by the pid of
/// the test process that wrote it.
const SCRATCH_PREFIX: &str = "cellscope_corrupt_";

/// `<cargo's per-package test tmp dir>/cellscope_corrupt_<pid><suffix>`.
fn scratch_path(suffix: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{SCRATCH_PREFIX}{}{suffix}", std::process::id()))
}

/// Remove the directories of earlier runs whose process is gone. The
/// shared fixture lives in a static and is never dropped, so its
/// directory outlives the run; the next run takes it away here.
fn remove_stale_scratch() {
    // Liveness is read from procfs; without it nothing is removed.
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
            .and_then(|rest| rest.split('_').next()?.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                std::fs::remove_dir_all(entry.path()).ok();
            }
        }
    }
}

/// A per-test copy of a feed dir, removed when dropped: a test that
/// fails before its end cleans up too.
struct ScratchCopy(PathBuf);

impl std::ops::Deref for ScratchCopy {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchCopy {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Export once, convert once; every test works on a fresh copy.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        remove_stale_scratch();
        let cfg = micro(42);
        let base = scratch_path("");
        let jsonl_dir = base.join("jsonl");
        let bin_dir = base.join("bin");
        let clean = run_study(&cfg).expect("in-memory study");
        export_feeds(&cfg, &jsonl_dir).expect("export");
        convert_feed_dir(&jsonl_dir, &bin_dir).expect("convert");
        Fixture { cfg, clean, jsonl_dir, bin_dir }
    })
}

/// Copy the pristine feed dir into a per-test scratch dir.
fn copy_dir(src: &Path, tag: &str) -> ScratchCopy {
    let dst = scratch_path(&format!("_{tag}"));
    std::fs::remove_dir_all(&dst).ok();
    std::fs::create_dir_all(&dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
    }
    ScratchCopy(dst)
}

/// Apply `damage` to the day-0 events segment in a fresh copy of the
/// pristine binary feed set.
fn damaged_feeds(tag: &str, damage: impl FnOnce(&mut Vec<u8>)) -> ScratchCopy {
    let dir = copy_dir(&fixture().bin_dir, tag);
    let target = dir.join(events_bin_name(0));
    let mut bytes = std::fs::read(&target).expect("read segment");
    damage(&mut bytes);
    std::fs::write(&target, &bytes).expect("write damaged segment");
    dir
}

/// Both binary byte sources a damaged segment can reach the decoders
/// through: `read(2)` into chunk buffers, and mmap'ed pages.
const BYTE_SOURCES: [ReplayOptions; 2] =
    [ReplayOptions::streamed(), ReplayOptions::mapped()];

fn replay_with(
    dir: &Path,
    policy: MalformedPolicy,
    options: ReplayOptions,
) -> Result<(StudyDataset, ReplayReport), ReplayError> {
    let fx = fixture();
    // One worker: the error that surfaces under fail-fast is then
    // deterministic (day 0 always loses the race when it races no one).
    let rcfg = ReplayConfig { threads: 1, policy, options, ..ReplayConfig::default() };
    replay_study(&fx.cfg, dir, &rcfg)
}

/// The FailFast half of a damage-class check: the replay aborts with a
/// typed [`SegmentError`] from the damaged file, matched by `expect` —
/// on the streamed and the mapped path alike.
fn assert_fail_fast(dir: &Path, expect: impl Fn(&SegmentError) -> bool) {
    for options in BYTE_SOURCES {
        let err = replay_with(dir, MalformedPolicy::FailFast, options)
            .err()
            .expect("damaged segment must abort under fail-fast");
        match &err {
            ReplayError::Feed { file, source: FeedError::Segment(cause) } => {
                assert_eq!(file, &events_bin_name(0), "error names the damaged file");
                assert!(
                    expect(cause),
                    "unexpected segment error ({options:?}): {cause:?}"
                );
            }
            other => panic!("expected a typed segment error, got: {other}"),
        }
    }
}

/// The SkipAndCount half: the replay completes, the damage is *counted*
/// (not silently dropped — the accounting identity still closes), and
/// the damaged file shows up in `malformed_at` with position 0 (the
/// whole-segment envelope failure marker). Checked on both byte
/// sources.
fn assert_skip_and_count(dir: &Path) {
    let fx = fixture();
    for options in BYTE_SOURCES {
        let (dataset, report) = replay_with(dir, MalformedPolicy::SkipAndCount, options)
            .expect("skip-and-count must survive a damaged segment");
        assert!(report.events.malformed > 0, "damage must be counted:\n{report}");
        assert!(report.lines_balance(), "accounting must still close:\n{report}");
        let marker = MalformedAt { file: events_bin_name(0).into(), line: 0 };
        assert!(
            report.malformed_at.contains(&marker),
            "damage location missing from {:?}",
            report.malformed_at
        );
        // Day 0's events are gone but the study still runs to
        // completion over the remaining days.
        assert_eq!(dataset.clock.num_days(), fx.clean.clock.num_days());
    }
}

// --- damage class 1: truncated segment ---------------------------------

#[test]
fn truncated_segment_fails_fast_with_typed_error() {
    let dir = damaged_feeds("trunc_ff", |bytes| {
        let keep = bytes.len() - 10;
        bytes.truncate(keep);
    });
    assert_fail_fast(&dir, |e| matches!(e, SegmentError::Truncated { .. }));
}

#[test]
fn truncated_segment_is_counted_under_skip_and_count() {
    let dir = damaged_feeds("trunc_sc", |bytes| {
        let keep = bytes.len() - 10;
        bytes.truncate(keep);
    });
    assert_skip_and_count(&dir);
}

// --- damage class 2: flipped header byte (bad magic) --------------------

#[test]
fn bad_magic_fails_fast_with_typed_error() {
    let dir = damaged_feeds("magic_ff", |bytes| bytes[1] ^= 0xFF);
    assert_fail_fast(&dir, |e| matches!(e, SegmentError::BadMagic { .. }));
}

#[test]
fn bad_magic_is_counted_under_skip_and_count() {
    let dir = damaged_feeds("magic_sc", |bytes| bytes[1] ^= 0xFF);
    assert_skip_and_count(&dir);
}

// --- damage class 3: payload bit rot (checksum mismatch) ----------------

#[test]
fn payload_bit_rot_fails_fast_with_checksum_mismatch() {
    let dir = damaged_feeds("crc_ff", |bytes| {
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
    });
    assert_fail_fast(&dir, |e| matches!(e, SegmentError::ChecksumMismatch { .. }));
}

#[test]
fn payload_bit_rot_is_counted_under_skip_and_count() {
    let dir = damaged_feeds("crc_sc", |bytes| {
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
    });
    assert_skip_and_count(&dir);
}

// --- damage class 4: wrong format version -------------------------------

#[test]
fn future_version_fails_fast_with_typed_error() {
    let dir = damaged_feeds("ver_ff", |bytes| {
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
    });
    assert_fail_fast(
        &dir,
        |e| matches!(e, SegmentError::UnsupportedVersion { found: 99 }),
    );
}

#[test]
fn future_version_is_counted_under_skip_and_count() {
    let dir = damaged_feeds("ver_sc", |bytes| {
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
    });
    assert_skip_and_count(&dir);
}

// --- damage class 5: lying record count (mid-column EOF) ----------------
//
// Inflating the header's record count leaves the payload checksum
// valid, so the envelope passes and the failure must be caught at
// column-read time: the first column runs out of bytes mid-read.

#[test]
fn inflated_record_count_fails_fast_with_column_overrun() {
    let dir = damaged_feeds("count_ff", |bytes| {
        let records = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        bytes[12..16].copy_from_slice(&(records + 1000).to_le_bytes());
    });
    assert_fail_fast(&dir, |e| matches!(e, SegmentError::ColumnOverrun { .. }));
}

#[test]
fn inflated_record_count_is_counted_under_skip_and_count() {
    let dir = damaged_feeds("count_sc", |bytes| {
        let records = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        bytes[12..16].copy_from_slice(&(records + 1000).to_le_bytes());
    });
    assert_skip_and_count(&dir);
}

// --- JSONL path: malformed line numbers land in the report --------------

#[test]
fn jsonl_malformed_line_numbers_are_recorded() {
    let fx = fixture();
    let dir = copy_dir(&fx.jsonl_dir, "jsonl_lines");
    let target = dir.join(events_file_name(0));
    let mut text = std::fs::read_to_string(&target).expect("read feed");
    let lines = text.lines().count() as u64;
    text.push_str("{ not json at all\n");
    text.push_str("also not json\n");
    std::fs::write(&target, &text).expect("write damaged feed");

    let (_, report) =
        replay_with(&dir, MalformedPolicy::SkipAndCount, ReplayOptions::streamed())
            .expect("skip-and-count survives bad lines");
    assert_eq!(report.events.malformed, 2, "both bad lines counted:\n{report}");
    assert!(report.lines_balance(), "{report}");
    for offset in 1..=2 {
        let marker = MalformedAt { file: events_file_name(0).into(), line: lines + offset };
        assert!(
            report.malformed_at.contains(&marker),
            "missing {}:{} in {:?}",
            marker.file,
            marker.line,
            report.malformed_at
        );
    }
    // The file name is interned: every malformed location in one feed
    // shares one `Arc<str>` allocation instead of cloning the path per
    // bad line (a damaged multi-GB feed must not also blow up memory).
    let hits: Vec<_> = report
        .malformed_at
        .iter()
        .filter(|m| &*m.file == events_file_name(0).as_str())
        .collect();
    assert_eq!(hits.len(), 2);
    assert!(
        std::sync::Arc::ptr_eq(&hits[0].file, &hits[1].file),
        "malformed locations in one file must share the interned name"
    );
}
