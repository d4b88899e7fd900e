//! Binary feed files: the KPI and voice segment codecs, file naming,
//! format detection, and the lossless JSONL⇄binary converter.
//!
//! The events codec lives in [`cellscope_signaling::columnar`] next to
//! the record type it serializes; this module adds the two scenario-
//! level feeds on the same column primitives and the directory-level
//! plumbing: a binary feed directory holds the *same* manifest and the
//! same per-day sharding as a JSONL one, with each `*.jsonl` file
//! replaced by a `*.csb` ("cellscope segment binary") segment.
//!
//! KPI payload layout (columns `records` long):
//!
//! ```text
//! cell     dictionary-coded u32
//! day      [u16; n]
//! hour     [u8;  n]
//! sample   10 × [f64-bits; n]   one column per HourlyKpiSample field
//! ```
//!
//! Voice payload layout:
//!
//! ```text
//! day              [u16; n]
//! off_net_voice_mb [f64-bits; n]
//! ```
//!
//! [`convert_feed_dir`] converts a whole feed directory in either
//! direction, sniffing the source format from the files themselves.
//! Conversion is lossless by construction — `f64`s travel as bit
//! patterns in binary and as shortest-round-trip decimal in JSONL, and
//! the JSONL writer is the same code the exporter uses — so
//! JSONL → binary → JSONL reproduces the original files *byte for
//! byte*, which is exactly what `tests/feedfmt_equivalence.rs` pins.

use crate::replay::{
    events_file_name, kpi_file_name, FeedManifest, KpiHourRecord, ReplayError,
    VoiceDayRecord, MANIFEST_FILE, VOICE_FILE,
};
use cellscope_core::kpi_stats::HourlyKpiSample;
use cellscope_signaling::columnar::{
    self, column,
    column::Cursor,
    format::{check_segment, seal_segment, split_segments, HEADER_LEN},
    DecodeScratch, SegmentError, SegmentHeader, SegmentKind, ALL_DAYS,
};
use cellscope_signaling::export::{parse_line, write_line, JsonlRecord};
use cellscope_signaling::{EventReader, FeedError, SignalingEvent};
use std::fs;
use std::io;
use std::path::Path;

/// Binary events feed file name for a day.
pub fn events_bin_name(day: u16) -> String {
    format!("events_d{day:03}.csb")
}

/// Binary KPI feed file name for a day.
pub fn kpi_bin_name(day: u16) -> String {
    format!("kpi_d{day:03}.csb")
}

/// The binary daily voice feed.
pub const VOICE_BIN_FILE: &str = "voice_daily.csb";

/// On-disk representation of a feed directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedFormat {
    /// One JSON object per line (the interchange/debug format).
    Jsonl,
    /// Columnar binary segments (the replay-throughput format).
    Binary,
}

impl std::fmt::Display for FeedFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FeedFormat::Jsonl => "jsonl",
            FeedFormat::Binary => "binary",
        })
    }
}

/// Detect a feed directory's format from the voice feed (the one file
/// every feed set has exactly one of). A directory with both variants
/// is ambiguous — the binary one wins, matching the replay reader's
/// per-file preference.
pub fn detect_format(dir: &Path) -> io::Result<FeedFormat> {
    if dir.join(VOICE_BIN_FILE).exists() {
        Ok(FeedFormat::Binary)
    } else if dir.join(VOICE_FILE).exists() {
        Ok(FeedFormat::Jsonl)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{}: neither {VOICE_BIN_FILE} nor {VOICE_FILE} present", dir.display()),
        ))
    }
}

// ---------------------------------------------------------------------
// KPI segment codec
// ---------------------------------------------------------------------

/// Records per segment the exporters target. Far below the `u32`
/// ceiling (a segment this size is tens of MB), so day feeds of any
/// population stay encodable, and the streaming replay reader's peak
/// buffer stays bounded by one segment.
pub const SEGMENT_TARGET_RECORDS: usize = 2_000_000;

/// Append one KPI segment to `out` (not cleared).
fn append_kpi_segment(
    day: u16,
    records: &[KpiHourRecord],
    out: &mut Vec<u8>,
) -> Result<(), SegmentError> {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    let n = records.len();
    column::encode_dict_u32(records.iter().map(|r| r.cell), n, out);
    for r in records {
        column::put_u16(out, r.day);
    }
    for r in records {
        out.push(r.hour);
    }
    // One column per sample field, in declaration order.
    macro_rules! f64_col {
        ($field:ident) => {
            for r in records {
                column::put_f64(out, r.sample.$field);
            }
        };
    }
    f64_col!(dl_volume_mb);
    f64_col!(ul_volume_mb);
    f64_col!(active_dl_users);
    f64_col!(connected_users);
    f64_col!(user_dl_throughput_mbps);
    f64_col!(tti_utilization);
    f64_col!(voice_volume_mb);
    f64_col!(voice_users);
    f64_col!(voice_ul_loss);
    f64_col!(voice_dl_loss);
    seal_segment(&mut out[start..], SegmentKind::Kpi, day, n)
}

/// Encode one day's KPI records into `out` (cleared first) as a single
/// segment; [`SegmentError::SegmentTooLarge`] past the `u32` ceiling.
pub fn encode_kpi_into(
    day: u16,
    records: &[KpiHourRecord],
    out: &mut Vec<u8>,
) -> Result<(), SegmentError> {
    out.clear();
    append_kpi_segment(day, records, out)
}

/// Encode one day's KPI records into `out` (cleared first) as
/// back-to-back segments of at most `max_records` each (at least one,
/// so an empty day still produces a well-formed file). Returns the
/// segment count.
pub fn encode_kpi_segmented(
    day: u16,
    records: &[KpiHourRecord],
    max_records: usize,
    out: &mut Vec<u8>,
) -> Result<usize, SegmentError> {
    assert!(max_records > 0, "segment capacity must be positive");
    out.clear();
    if records.is_empty() {
        append_kpi_segment(day, records, out)?;
        return Ok(1);
    }
    let mut segments = 0;
    for chunk in records.chunks(max_records) {
        append_kpi_segment(day, chunk, out)?;
        segments += 1;
    }
    Ok(segments)
}

/// Decode a KPI segment into `out` (cleared first); typed errors, zero
/// steady-state allocations once `out` and `scratch` are warm.
pub fn decode_kpi_into(
    bytes: &[u8],
    scratch: &mut DecodeScratch,
    out: &mut Vec<KpiHourRecord>,
) -> Result<SegmentHeader, SegmentError> {
    out.clear();
    let (header, payload) = check_segment(bytes, SegmentKind::Kpi)?;
    let n = header.records as usize;
    let mut cur = Cursor::new(payload);
    let cells = column::read_dict_u32(&mut cur, n, &mut scratch.dict, "cell")?;
    let day = cur.take(2 * n, "day")?;
    let hour = cur.take(n, "hour")?;
    let mut f64_cols = [&[] as &[u8]; 10];
    const SAMPLE_COLUMNS: [&str; 10] = [
        "dl_volume_mb",
        "ul_volume_mb",
        "active_dl_users",
        "connected_users",
        "user_dl_throughput_mbps",
        "tti_utilization",
        "voice_volume_mb",
        "voice_users",
        "voice_ul_loss",
        "voice_dl_loss",
    ];
    for (slot, name) in f64_cols.iter_mut().zip(SAMPLE_COLUMNS) {
        *slot = cur.take(8 * n, name)?;
    }
    cur.finish()?;

    out.reserve(n);
    for i in 0..n {
        let cell = match cells.get(&scratch.dict, i) {
            Ok(cell) => cell,
            Err(e) => {
                out.clear(); // never hand back a half-filled decode
                return Err(e);
            }
        };
        out.push(KpiHourRecord {
            cell,
            day: column::u16_at(day, i),
            hour: column::u8_at(hour, i),
            sample: HourlyKpiSample {
                dl_volume_mb: column::f64_at(f64_cols[0], i),
                ul_volume_mb: column::f64_at(f64_cols[1], i),
                active_dl_users: column::f64_at(f64_cols[2], i),
                connected_users: column::f64_at(f64_cols[3], i),
                user_dl_throughput_mbps: column::f64_at(f64_cols[4], i),
                tti_utilization: column::f64_at(f64_cols[5], i),
                voice_volume_mb: column::f64_at(f64_cols[6], i),
                voice_users: column::f64_at(f64_cols[7], i),
                voice_ul_loss: column::f64_at(f64_cols[8], i),
                voice_dl_loss: column::f64_at(f64_cols[9], i),
            },
        });
    }
    Ok(header)
}

// ---------------------------------------------------------------------
// Voice segment codec
// ---------------------------------------------------------------------

/// Encode the whole-study voice feed into `out` (cleared first).
pub fn encode_voice_into(
    records: &[VoiceDayRecord],
    out: &mut Vec<u8>,
) -> Result<(), SegmentError> {
    out.clear();
    out.resize(HEADER_LEN, 0);
    for r in records {
        column::put_u16(out, r.day);
    }
    for r in records {
        column::put_f64(out, r.off_net_voice_mb);
    }
    seal_segment(out, SegmentKind::Voice, ALL_DAYS, records.len())
}

/// Decode a voice segment into `out` (cleared first).
pub fn decode_voice_into(
    bytes: &[u8],
    out: &mut Vec<VoiceDayRecord>,
) -> Result<SegmentHeader, SegmentError> {
    out.clear();
    let (header, payload) = check_segment(bytes, SegmentKind::Voice)?;
    let n = header.records as usize;
    let mut cur = Cursor::new(payload);
    let day = cur.take(2 * n, "day")?;
    let volume = cur.take(8 * n, "off_net_voice_mb")?;
    cur.finish()?;
    out.reserve(n);
    for i in 0..n {
        out.push(VoiceDayRecord {
            day: column::u16_at(day, i),
            off_net_voice_mb: column::f64_at(volume, i),
        });
    }
    Ok(header)
}

// ---------------------------------------------------------------------
// Directory converter
// ---------------------------------------------------------------------

/// What [`convert_feed_dir`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertSummary {
    /// Format the source directory was in.
    pub from: FeedFormat,
    /// Format the destination was written in (the other one).
    pub to: FeedFormat,
    /// Files converted (manifest excluded — it is copied verbatim).
    pub files: u64,
    /// Total bytes read from the source feed files.
    pub src_bytes: u64,
    /// Total bytes written to the destination feed files.
    pub dst_bytes: u64,
}

/// Parse one JSONL feed of `T` records, fail-fast with 1-based line
/// numbers — the converter refuses to launder a damaged feed into a
/// clean-looking binary one.
fn parse_jsonl_records<T: JsonlRecord>(
    text: &str,
    file: &str,
) -> Result<Vec<T>, ReplayError> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let rec = parse_line::<T>(trimmed).map_err(|e| ReplayError::Feed {
            file: file.to_string(),
            source: FeedError::Malformed { line: idx as u64 + 1, reason: e.to_string() },
        })?;
        records.push(rec);
    }
    Ok(records)
}

/// Serialize records as JSONL with the exact writer the exporter uses,
/// so a binary→JSONL conversion reproduces exported files byte for
/// byte.
fn write_jsonl_records<T: JsonlRecord>(records: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    for rec in records {
        write_line(rec, &mut out);
    }
    out
}

/// Convert one feed file; returns (src_len, dst_len).
fn convert_file<T, E, D>(
    src: &Path,
    src_name: &str,
    dst: &Path,
    from: FeedFormat,
    parse_text: impl FnOnce(&str) -> Result<Vec<T>, ReplayError>,
    encode: E,
    decode: D,
) -> Result<(u64, u64), ReplayError>
where
    T: JsonlRecord,
    E: FnOnce(&[T], &mut Vec<u8>) -> Result<(), SegmentError>,
    D: FnOnce(&[u8]) -> Result<Vec<T>, SegmentError>,
{
    let bytes = fs::read(src)?;
    let src_len = bytes.len() as u64;
    let out = match from {
        FeedFormat::Jsonl => {
            let text = String::from_utf8(bytes).map_err(|e| ReplayError::Feed {
                file: src_name.to_string(),
                source: FeedError::Malformed {
                    line: 0,
                    reason: format!("not UTF-8: {e}"),
                },
            })?;
            let records = parse_text(&text)?;
            let mut buf = Vec::new();
            encode(&records, &mut buf).map_err(|cause| ReplayError::Feed {
                file: src_name.to_string(),
                source: FeedError::Segment(cause),
            })?;
            buf
        }
        FeedFormat::Binary => {
            let records = decode(&bytes).map_err(|cause| ReplayError::Feed {
                file: src_name.to_string(),
                source: FeedError::Segment(cause),
            })?;
            write_jsonl_records(&records)
        }
    };
    let dst_len = out.len() as u64;
    fs::write(dst, out)?;
    Ok((src_len, dst_len))
}

/// Convert a feed directory to the other format, writing a complete
/// feed set (manifest copied verbatim, every day's events and KPI
/// files, the voice feed) into `dst`. The source is read fail-fast: a
/// malformed line or a damaged segment aborts with its file and
/// position rather than producing a silently incomplete conversion.
pub fn convert_feed_dir(src: &Path, dst: &Path) -> Result<ConvertSummary, ReplayError> {
    let from = detect_format(src)?;
    let to = match from {
        FeedFormat::Jsonl => FeedFormat::Binary,
        FeedFormat::Binary => FeedFormat::Jsonl,
    };
    let manifest_text = fs::read_to_string(src.join(MANIFEST_FILE))?;
    let manifest: FeedManifest = serde_json::from_str(&manifest_text)
        .map_err(|e| ReplayError::Manifest(e.to_string()))?;
    fs::create_dir_all(dst)?;
    fs::write(dst.join(MANIFEST_FILE), &manifest_text)?;

    let mut summary = ConvertSummary { from, to, files: 0, src_bytes: 0, dst_bytes: 0 };
    let add = |r: (u64, u64), summary: &mut ConvertSummary| {
        summary.files += 1;
        summary.src_bytes += r.0;
        summary.dst_bytes += r.1;
    };

    for day in 0..manifest.num_days {
        // Events: EventReader gives the converter the same fail-fast
        // line accounting the replay engine uses.
        let (ev_src, ev_dst) = match from {
            FeedFormat::Jsonl => (events_file_name(day), events_bin_name(day)),
            FeedFormat::Binary => (events_bin_name(day), events_file_name(day)),
        };
        let r = convert_file::<SignalingEvent, _, _>(
            &src.join(&ev_src),
            &ev_src,
            &dst.join(&ev_dst),
            from,
            |text| {
                let mut events = Vec::new();
                for item in EventReader::new(text.as_bytes()) {
                    events.push(item.map_err(|source| ReplayError::Feed {
                        file: ev_src.clone(),
                        source,
                    })?);
                }
                Ok(events)
            },
            |events, out| columnar::encode_events_into(day, events, out),
            |bytes| {
                let mut events = Vec::new();
                let mut scratch = DecodeScratch::default();
                let mut seg_out = Vec::new();
                for seg in split_segments(bytes) {
                    columnar::decode_events_into(seg?, &mut scratch, &mut seg_out)?;
                    events.append(&mut seg_out);
                }
                Ok(events)
            },
        )?;
        add(r, &mut summary);

        let (kpi_src, kpi_dst) = match from {
            FeedFormat::Jsonl => (kpi_file_name(day), kpi_bin_name(day)),
            FeedFormat::Binary => (kpi_bin_name(day), kpi_file_name(day)),
        };
        let r = convert_file::<KpiHourRecord, _, _>(
            &src.join(&kpi_src),
            &kpi_src,
            &dst.join(&kpi_dst),
            from,
            |text| parse_jsonl_records(text, &kpi_src),
            |records, out| encode_kpi_into(day, records, out),
            |bytes| {
                let mut records = Vec::new();
                let mut scratch = DecodeScratch::default();
                let mut seg_out = Vec::new();
                for seg in split_segments(bytes) {
                    decode_kpi_into(seg?, &mut scratch, &mut seg_out)?;
                    records.append(&mut seg_out);
                }
                Ok(records)
            },
        )?;
        add(r, &mut summary);
    }

    let (voice_src, voice_dst) = match from {
        FeedFormat::Jsonl => (VOICE_FILE, VOICE_BIN_FILE),
        FeedFormat::Binary => (VOICE_BIN_FILE, VOICE_FILE),
    };
    let r = convert_file::<VoiceDayRecord, _, _>(
        &src.join(voice_src),
        voice_src,
        &dst.join(voice_dst),
        from,
        |text| parse_jsonl_records(text, voice_src),
        |records, out| encode_voice_into(records, out),
        |bytes| {
            let mut records = Vec::new();
            let mut seg_out = Vec::new();
            for seg in split_segments(bytes) {
                decode_voice_into(seg?, &mut seg_out)?;
                records.append(&mut seg_out);
            }
            Ok(records)
        },
    )?;
    add(r, &mut summary);
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kpi_records(n: usize) -> Vec<KpiHourRecord> {
        (0..n)
            .map(|i| KpiHourRecord {
                cell: (i as u32 / 24) * 3,
                day: 5,
                hour: (i % 24) as u8,
                sample: HourlyKpiSample {
                    dl_volume_mb: 0.1 + i as f64,
                    ul_volume_mb: 1.0 / (i as f64 + 3.0),
                    active_dl_users: i as f64 * 2.5e-3,
                    connected_users: 123.456 + i as f64,
                    user_dl_throughput_mbps: f64::MIN_POSITIVE * (i as f64 + 1.0),
                    tti_utilization: (i as f64 / n as f64).min(0.999999),
                    voice_volume_mb: 7.0,
                    voice_users: if i % 2 == 0 { 0.0 } else { -0.0 },
                    voice_ul_loss: std::f64::consts::PI,
                    voice_dl_loss: 1e300 / (i as f64 + 1.0),
                },
            })
            .collect()
    }

    #[test]
    fn kpi_segment_roundtrips_bit_exact() {
        let records = kpi_records(96);
        let mut bytes = Vec::new();
        encode_kpi_into(5, &records, &mut bytes).unwrap();
        let mut out = Vec::new();
        let header =
            decode_kpi_into(&bytes, &mut DecodeScratch::default(), &mut out).unwrap();
        assert_eq!(header.kind, SegmentKind::Kpi);
        assert_eq!(header.day, 5);
        assert_eq!(out, records);
    }

    #[test]
    fn kpi_jsonl_roundtrips_bit_exact() {
        let records = kpi_records(96);
        let text = String::from_utf8(write_jsonl_records(&records)).unwrap();
        let back: Vec<KpiHourRecord> = parse_jsonl_records(&text, "kpi").unwrap();
        assert_eq!(write_jsonl_records(&back), text.as_bytes());
        // The segment holds `f64` bit patterns: equal segments are
        // bit-equal records, `-0.0` included.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_kpi_into(5, &records, &mut a).unwrap();
        encode_kpi_into(5, &back, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn voice_segment_roundtrips_bit_exact() {
        let records: Vec<VoiceDayRecord> = (0..77)
            .map(|d| VoiceDayRecord { day: d, off_net_voice_mb: 0.1 + 0.7 * d as f64 })
            .collect();
        let mut bytes = Vec::new();
        encode_voice_into(&records, &mut bytes).unwrap();
        let mut out = Vec::new();
        let header = decode_voice_into(&bytes, &mut out).unwrap();
        assert_eq!(header.day, ALL_DAYS);
        assert_eq!(out, records);
    }

    #[test]
    fn kpi_decoder_rejects_events_segments() {
        let bytes = columnar::encode_events(0, &[]);
        let err = decode_kpi_into(&bytes, &mut DecodeScratch::default(), &mut Vec::new())
            .unwrap_err();
        assert!(matches!(
            err,
            SegmentError::WrongKind { found: SegmentKind::Events, expected: SegmentKind::Kpi }
        ));
    }
}
