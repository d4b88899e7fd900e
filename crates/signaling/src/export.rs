//! Feed serialization: JSON-lines writers/readers for the signaling
//! event stream.
//!
//! The paper's raw feeds could never leave the operator (NDA, GDPR).
//! The synthetic equivalents can: this module gives the event stream a
//! stable on-disk representation so external tooling (pandas, DuckDB,
//! jq) can consume the same records the in-process pipeline does. One
//! JSON object per line, schema = [`SignalingEvent`]'s serde form.
//!
//! # Streaming vs collecting
//!
//! [`EventReader`] is the primary API: an iterator that yields one
//! `Result<SignalingEvent, FeedError>` per feed line while reusing a
//! single line buffer, so reading an N-event feed allocates O(1)
//! scratch instead of O(N) lines. It also carries the fault-tolerance
//! knobs the replay engine needs: a [`MalformedPolicy`] deciding
//! whether a bad line aborts the stream or is counted and skipped, an
//! optional [`FeedBounds`] for semantic validation (day/cell ids in
//! range), and running [`FeedStats`] that account for every line read
//! (`parsed + blank + malformed == lines_read`, always).
//!
//! [`read_events_jsonl`] is a thin fail-fast wrapper that collects the
//! iterator into a `Vec` — convenient for tests and small feeds.
//!
//! # The line codec
//!
//! Every feed line of every record kind (events here, KPI and voice
//! records in the scenario crate) goes through one typed codec,
//! [`JsonlRecord`]: [`write_line`] appends the record's line to a
//! reused buffer, byte for byte what `serde_json::to_string` writes,
//! and [`parse_line`] reads one back. The reader has a fast path and an
//! arbiter:
//!
//! * the **canonical** line — the writer's own output: declared key
//!   order, no whitespace, no escapes, no leading `-` — is scanned
//!   straight into the struct without allocating, using the number
//!   spans and `str::parse` calls of the generic parser;
//! * any other line, and any canonical line whose values the generic
//!   parser would reject, is declined to `serde_json::from_str`, which
//!   decides.
//!
//! So every accept/reject decision, value bit and error text is the
//! generic parser's; the codec changes only what a feed line costs.

use crate::event::{EventType, SignalingEvent};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Write events as JSON lines.
pub fn write_events_jsonl<W: Write>(
    mut writer: W,
    events: &[SignalingEvent],
) -> io::Result<()> {
    let mut line = Vec::with_capacity(160);
    for event in events {
        line.clear();
        write_line(event, &mut line);
        writer.write_all(&line)?;
    }
    Ok(())
}

/// A feed record with a typed JSONL line (see the module docs).
///
/// A line is the record's compact `serde_json` object: struct fields
/// in declaration order, newtypes as their inner value, unit variants
/// as their name, integers in decimal and `f64`s as [`push_f64`]
/// writes them.
pub trait JsonlRecord: serde::Deserialize {
    /// Append the record's JSON object (no newline) to `out`.
    fn write_json(&self, out: &mut Vec<u8>);

    /// Scan a canonical line into a record; `None` declines the line to
    /// the generic parser. [`parse_line`] checks that the object ends
    /// the line.
    fn scan_json(scan: &mut LineScanner<'_>) -> Option<Self>;
}

/// Append `record`'s feed line, newline included, to `out`.
pub fn write_line<T: JsonlRecord>(record: &T, out: &mut Vec<u8>) {
    record.write_json(out);
    out.push(b'\n');
}

/// Parse one trimmed, non-blank feed line: the canonical fast path, or
/// else `serde_json::from_str`, whose decision and error stand.
pub fn parse_line<T: JsonlRecord>(line: &str) -> Result<T, serde_json::Error> {
    let mut scan = LineScanner::new(line);
    match T::scan_json(&mut scan) {
        Some(record) if scan.at_end() => Ok(record),
        _ => serde_json::from_str(line),
    }
}

/// A cursor over one feed line for [`JsonlRecord::scan_json`]. Every
/// method consumes one canonical token and returns `None` — decline —
/// on anything else.
pub struct LineScanner<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> LineScanner<'a> {
    /// A scanner at the start of `line`.
    pub fn new(line: &'a str) -> LineScanner<'a> {
        LineScanner { line, pos: 0 }
    }

    /// Whether the whole line has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.line.len()
    }

    /// Consume exactly `text`: structure and a key, as in `,"day":`.
    pub fn literal(&mut self, text: &str) -> Option<()> {
        let rest = &self.line.as_bytes()[self.pos..];
        rest.starts_with(text.as_bytes()).then(|| self.pos += text.len())
    }

    /// The span the generic parser reads as one number — digits and
    /// `.eE+-` — and whether it holds a non-digit (the parser's
    /// `is_float`). Declines a span that does not start with a digit.
    fn number(&mut self) -> Option<(&'a str, bool)> {
        let bytes = self.line.as_bytes();
        let start = self.pos;
        if !bytes.get(start)?.is_ascii_digit() {
            return None;
        }
        let mut is_float = false;
        let mut end = start + 1;
        while let Some(&c) = bytes.get(end) {
            match c {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            end += 1;
        }
        self.pos = end;
        Some((&self.line[start..end], is_float))
    }

    /// An unsigned integer field: `u64` parse, then the range check.
    pub fn uint<T: TryFrom<u64>>(&mut self) -> Option<T> {
        match self.number()? {
            (text, false) => T::try_from(text.parse::<u64>().ok()?).ok(),
            (_, true) => None,
        }
    }

    /// An `f64` field: an integer span that fits `u64` converts from it,
    /// any other span parses as `f64`.
    pub fn f64(&mut self) -> Option<f64> {
        let (text, is_float) = self.number()?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Some(v as f64);
            }
        }
        text.parse::<f64>().ok()
    }

    /// A `bool` field.
    pub fn bool(&mut self) -> Option<bool> {
        if self.literal("true").is_some() {
            Some(true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// A string without escapes or control characters.
    pub fn str(&mut self) -> Option<&'a str> {
        self.literal("\"")?;
        let start = self.pos;
        let len = self.line.as_bytes()[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)?;
        self.pos = start + len;
        self.literal("\"")?;
        Some(&self.line[start..start + len])
    }
}

/// Append an unsigned integer in decimal.
pub fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append an `f64` as `serde_json` writes it: shortest round-trip
/// decimal, `-0.0` for negative zero, `null` when not finite.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
    } else if v == 0.0 && v.is_sign_negative() {
        out.extend_from_slice(b"-0.0");
    } else {
        write!(out, "{v}").expect("writing to a Vec<u8> cannot fail");
    }
}

impl JsonlRecord for SignalingEvent {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(br#"{"anon_id":"#);
        push_u64(out, self.anon_id);
        out.extend_from_slice(br#","mcc":"#);
        push_u64(out, self.mcc.into());
        out.extend_from_slice(br#","mnc":"#);
        push_u64(out, self.mnc.into());
        out.extend_from_slice(br#","tac":"#);
        push_u64(out, self.tac.0.into());
        out.extend_from_slice(br#","cell":"#);
        push_u64(out, self.cell.0.into());
        out.extend_from_slice(br#","day":"#);
        push_u64(out, self.day.into());
        out.extend_from_slice(br#","minute":"#);
        push_u64(out, self.minute.into());
        out.extend_from_slice(br#","event":""#);
        out.extend_from_slice(self.event.name().as_bytes());
        out.extend_from_slice(br#"","success":"#);
        out.extend_from_slice(if self.success { b"true" } else { b"false" });
        out.push(b'}');
    }

    fn scan_json(scan: &mut LineScanner<'_>) -> Option<SignalingEvent> {
        scan.literal(r#"{"anon_id":"#)?;
        let anon_id = scan.uint()?;
        scan.literal(r#","mcc":"#)?;
        let mcc = scan.uint()?;
        scan.literal(r#","mnc":"#)?;
        let mnc = scan.uint()?;
        scan.literal(r#","tac":"#)?;
        let tac = scan.uint()?;
        scan.literal(r#","cell":"#)?;
        let cell = scan.uint()?;
        scan.literal(r#","day":"#)?;
        let day = scan.uint()?;
        scan.literal(r#","minute":"#)?;
        let minute = scan.uint()?;
        scan.literal(r#","event":"#)?;
        let name = scan.str()?;
        let event = EventType::ALL.into_iter().find(|e| e.name() == name)?;
        scan.literal(r#","success":"#)?;
        let success = scan.bool()?;
        scan.literal("}")?;
        Some(SignalingEvent {
            anon_id,
            mcc,
            mnc,
            tac: crate::tac::TacCode(tac),
            cell: cellscope_radio::CellId(cell),
            day,
            minute,
            event,
            success,
        })
    }
}

/// What a reader does when it hits a line it cannot turn into a valid
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MalformedPolicy {
    /// Stop at the first bad line and report it (the default; right for
    /// feeds we produced ourselves, where any damage is a bug).
    FailFast,
    /// Drop bad lines, keep counts in [`FeedStats::malformed`], and
    /// keep going (right for replaying feeds of unknown provenance —
    /// the paper's probes drop records too; the analysis must degrade,
    /// not abort).
    SkipAndCount,
}

/// A feed-read failure, locating the problem when it is per-line.
#[derive(Debug)]
pub enum FeedError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A specific line could not be parsed or failed validation.
    /// `line` is 1-based, matching what `sed -n '<line>p'` shows.
    Malformed { line: u64, reason: String },
    /// A binary columnar segment failed envelope or column validation
    /// (truncation, bad magic/version, checksum mismatch, mid-column
    /// EOF…). Carries the typed, `Copy` cause — no allocation happens
    /// until the error is actually rendered.
    Segment(crate::columnar::SegmentError),
}

impl fmt::Display for FeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedError::Io(e) => write!(f, "feed I/O error: {e}"),
            FeedError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            FeedError::Segment(cause) => write!(f, "binary segment: {cause}"),
        }
    }
}

impl std::error::Error for FeedError {}

impl From<FeedError> for io::Error {
    fn from(e: FeedError) -> io::Error {
        match e {
            FeedError::Io(io_err) => io_err,
            FeedError::Malformed { .. } | FeedError::Segment(_) => {
                io::Error::new(io::ErrorKind::InvalidData, e.to_string())
            }
        }
    }
}

/// Per-stream accounting. Every line read lands in exactly one of the
/// last three buckets: `parsed + blank + malformed == lines_read`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedStats {
    /// Total lines consumed from the reader.
    pub lines_read: u64,
    /// Lines that produced a valid event.
    pub parsed: u64,
    /// Whitespace-only lines (tolerated separators).
    pub blank: u64,
    /// Lines rejected as unparseable or out of bounds. Under
    /// [`MalformedPolicy::FailFast`] at most 1 (the line that aborted).
    pub malformed: u64,
}

/// Semantic bounds for validation beyond JSON well-formedness: a feed
/// event referring to a day or cell outside the study universe is as
/// malformed as broken JSON — downstream code indexes arrays with
/// these ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedBounds {
    /// Number of study days; `event.day` must be `< num_days`.
    pub num_days: u16,
    /// Number of cells; `event.cell.0` must be `< num_cells`.
    pub num_cells: u32,
}

impl FeedBounds {
    /// Validate an event against the bounds.
    ///
    /// Returns a [`BoundsViolation`] — a `Copy` value, no allocation —
    /// so the replay hot path can reject millions of events without
    /// formatting a `String` per rejection. Format (via `Display`) only
    /// when the error is actually surfaced.
    pub fn check(&self, event: &SignalingEvent) -> Result<(), BoundsViolation> {
        if event.day >= self.num_days {
            return Err(BoundsViolation::DayOutOfRange {
                day: event.day,
                num_days: self.num_days,
            });
        }
        if event.cell.0 >= self.num_cells {
            return Err(BoundsViolation::CellOutOfRange {
                cell: event.cell.0,
                num_cells: self.num_cells,
            });
        }
        Ok(())
    }
}

/// Why an event failed [`FeedBounds::check`]. Carries the raw ids so
/// the message can be produced lazily; `Display` renders exactly the
/// strings the old `Result<(), String>` API formatted eagerly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsViolation {
    /// `event.day` is not `< num_days`.
    DayOutOfRange {
        /// Offending day.
        day: u16,
        /// Study length in days.
        num_days: u16,
    },
    /// `event.cell.0` is not `< num_cells`.
    CellOutOfRange {
        /// Offending cell id.
        cell: u32,
        /// Topology cell count.
        num_cells: u32,
    },
}

impl fmt::Display for BoundsViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundsViolation::DayOutOfRange { day, num_days } => {
                write!(f, "day {day} out of range (study has {num_days} days)")
            }
            BoundsViolation::CellOutOfRange { cell, num_cells } => {
                write!(f, "cell {cell} out of range (topology has {num_cells} cells)")
            }
        }
    }
}

impl std::error::Error for BoundsViolation {}

/// Most malformed-line positions an [`EventReader`] records. A damaged
/// multi-million-line feed must not turn the reader's accounting into
/// an unbounded allocation; the *count* in [`FeedStats::malformed`] is
/// always exact, the recorded positions are the first few witnesses.
pub const MAX_MALFORMED_LINES: usize = 16;

/// Streaming JSONL event reader: an iterator over
/// `Result<SignalingEvent, FeedError>`.
///
/// One internal `String` is reused across lines, so iteration performs
/// no per-line buffer allocation (the per-event work is just the JSON
/// parse). Configure with [`with_policy`](EventReader::with_policy) and
/// [`with_bounds`](EventReader::with_bounds); inspect accounting at any
/// point with [`stats`](EventReader::stats) and the positions of the
/// first rejected lines with
/// [`malformed_lines`](EventReader::malformed_lines) — under
/// [`MalformedPolicy::SkipAndCount`] those numbers are the only record
/// of *where* a feed was damaged.
pub struct EventReader<R: BufRead> {
    reader: R,
    buf: String,
    policy: MalformedPolicy,
    bounds: Option<FeedBounds>,
    stats: FeedStats,
    /// 1-based positions of the first [`MAX_MALFORMED_LINES`] rejected
    /// lines. Empty on a clean feed, so the happy path never allocates.
    malformed_lines: Vec<u64>,
    /// Set after a fatal error (I/O, or malformed under fail-fast) so
    /// the iterator fuses instead of re-reading a broken stream.
    done: bool,
}

impl<R: BufRead> EventReader<R> {
    /// Reader with the default fail-fast policy and no bounds checks.
    pub fn new(reader: R) -> EventReader<R> {
        EventReader {
            reader,
            buf: String::new(),
            policy: MalformedPolicy::FailFast,
            bounds: None,
            stats: FeedStats::default(),
            malformed_lines: Vec::new(),
            done: false,
        }
    }

    /// Set the malformed-line policy.
    pub fn with_policy(mut self, policy: MalformedPolicy) -> EventReader<R> {
        self.policy = policy;
        self
    }

    /// Enable semantic validation against study bounds.
    pub fn with_bounds(mut self, bounds: FeedBounds) -> EventReader<R> {
        self.bounds = Some(bounds);
        self
    }

    /// Accounting so far (final once the iterator returns `None`).
    pub fn stats(&self) -> FeedStats {
        self.stats
    }

    /// 1-based line numbers of the first [`MAX_MALFORMED_LINES`]
    /// rejected lines, in feed order. Under skip-and-count these are
    /// the only trace of where the damage sat; under fail-fast the
    /// single entry matches the error's line.
    pub fn malformed_lines(&self) -> &[u64] {
        &self.malformed_lines
    }

    /// Classify the current buffer; `None` means "skip, keep reading".
    ///
    /// Error *formatting* is deferred until the error is surfaced:
    /// under [`MalformedPolicy::SkipAndCount`] a bad line costs one
    /// counter bump, not a `String` render — on a replay of a damaged
    /// multi-million-line feed that difference is the hot path.
    fn take_line(&mut self) -> Option<Result<SignalingEvent, FeedError>> {
        let line = self.buf.trim();
        if line.is_empty() {
            self.stats.blank += 1;
            return None;
        }
        // Unformatted rejection cause, rendered only under FailFast.
        enum Reject {
            Parse(serde_json::Error),
            Bounds(BoundsViolation),
        }
        let checked = parse_line::<SignalingEvent>(line)
            .map_err(Reject::Parse)
            .and_then(|ev| match &self.bounds {
                Some(b) => b.check(&ev).map(|()| ev).map_err(Reject::Bounds),
                None => Ok(ev),
            });
        match checked {
            Ok(ev) => {
                self.stats.parsed += 1;
                Some(Ok(ev))
            }
            Err(reject) => {
                self.stats.malformed += 1;
                if self.malformed_lines.len() < MAX_MALFORMED_LINES {
                    self.malformed_lines.push(self.stats.lines_read);
                }
                match self.policy {
                    MalformedPolicy::SkipAndCount => None,
                    MalformedPolicy::FailFast => {
                        self.done = true;
                        let reason = match reject {
                            Reject::Parse(e) => e.to_string(),
                            Reject::Bounds(v) => v.to_string(),
                        };
                        Some(Err(FeedError::Malformed {
                            line: self.stats.lines_read,
                            reason,
                        }))
                    }
                }
            }
        }
    }
}

impl<R: BufRead> Iterator for EventReader<R> {
    type Item = Result<SignalingEvent, FeedError>;

    fn next(&mut self) -> Option<Result<SignalingEvent, FeedError>> {
        while !self.done {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(FeedError::Io(e)));
                }
            }
            self.stats.lines_read += 1;
            if let Some(item) = self.take_line() {
                return Some(item);
            }
        }
        None
    }
}

/// Read events back from JSON lines, collecting into a `Vec`.
///
/// Thin wrapper over a fail-fast [`EventReader`]: malformed lines are
/// returned as `InvalidData` errors carrying their 1-based line number
/// — a feed consumer must know *where* a probe export broke, not just
/// that it did.
pub fn read_events_jsonl<R: BufRead>(reader: R) -> io::Result<Vec<SignalingEvent>> {
    let mut events = Vec::new();
    for item in EventReader::new(reader) {
        events.push(item.map_err(io::Error::from)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventType, HOME_MNC, UK_MCC};
    use crate::tac::TacCode;
    use cellscope_radio::CellId;

    fn sample(n: usize) -> Vec<SignalingEvent> {
        (0..n)
            .map(|i| SignalingEvent {
                anon_id: 0xDEAD_0000 + i as u64,
                mcc: UK_MCC,
                mnc: HOME_MNC,
                tac: TacCode(35_000_000),
                cell: CellId(i as u32 % 7),
                day: 12,
                minute: (i * 13 % 1440) as u16,
                event: EventType::ALL[i % EventType::ALL.len()],
                success: i % 11 != 0,
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let events = sample(50);
        let mut buffer = Vec::new();
        write_events_jsonl(&mut buffer, &events).unwrap();
        let back = read_events_jsonl(buffer.as_slice()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn empty_stream_roundtrips() {
        let mut buffer = Vec::new();
        write_events_jsonl(&mut buffer, &[]).unwrap();
        assert!(read_events_jsonl(buffer.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let events = sample(3);
        let mut buffer = Vec::new();
        write_events_jsonl(&mut buffer, &events).unwrap();
        buffer.extend_from_slice(b"\n\n");
        let back = read_events_jsonl(buffer.as_slice()).unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn malformed_line_reports_its_position() {
        let events = sample(2);
        let mut buffer = Vec::new();
        write_events_jsonl(&mut buffer, &events).unwrap();
        buffer.extend_from_slice(b"{not json}\n");
        let err = read_events_jsonl(buffer.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn one_object_per_line() {
        let events = sample(4);
        let mut buffer = Vec::new();
        write_events_jsonl(&mut buffer, &events).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn streaming_reader_counts_every_line() {
        let events = sample(5);
        let mut buffer = Vec::new();
        write_events_jsonl(&mut buffer, &events).unwrap();
        buffer.extend_from_slice(b"\n{bad}\n   \n");
        write_events_jsonl(&mut buffer, &events[..2]).unwrap();

        let mut reader = EventReader::new(buffer.as_slice())
            .with_policy(MalformedPolicy::SkipAndCount);
        let back: Vec<SignalingEvent> =
            (&mut reader).map(|r| r.unwrap()).collect();
        assert_eq!(back.len(), 7);

        let stats = reader.stats();
        assert_eq!(stats.lines_read, 10);
        assert_eq!(stats.parsed, 7);
        assert_eq!(stats.blank, 2);
        assert_eq!(stats.malformed, 1);
        assert_eq!(
            stats.parsed + stats.blank + stats.malformed,
            stats.lines_read
        );
    }

    #[test]
    fn malformed_line_positions_are_recorded() {
        let mut buffer = Vec::new();
        write_events_jsonl(&mut buffer, &sample(2)).unwrap();
        buffer.extend_from_slice(b"{bad}\n");
        write_events_jsonl(&mut buffer, &sample(1)).unwrap();
        buffer.extend_from_slice(b"also bad\n");

        let mut reader = EventReader::new(buffer.as_slice())
            .with_policy(MalformedPolicy::SkipAndCount);
        assert_eq!((&mut reader).filter_map(Result::ok).count(), 3);
        assert_eq!(reader.stats().malformed, 2);
        assert_eq!(reader.malformed_lines(), &[3, 5]);
    }

    #[test]
    fn malformed_line_recording_is_capped() {
        let mut buffer = Vec::new();
        for _ in 0..(MAX_MALFORMED_LINES + 10) {
            buffer.extend_from_slice(b"{nope}\n");
        }
        let mut reader = EventReader::new(buffer.as_slice())
            .with_policy(MalformedPolicy::SkipAndCount);
        assert_eq!((&mut reader).count(), 0);
        assert_eq!(
            reader.stats().malformed,
            (MAX_MALFORMED_LINES + 10) as u64,
            "the count stays exact past the cap"
        );
        assert_eq!(reader.malformed_lines().len(), MAX_MALFORMED_LINES);
        assert_eq!(reader.malformed_lines()[0], 1);
    }

    #[test]
    fn fail_fast_reader_fuses_after_error() {
        let mut buffer = Vec::new();
        write_events_jsonl(&mut buffer, &sample(1)).unwrap();
        buffer.extend_from_slice(b"garbage\n");
        write_events_jsonl(&mut buffer, &sample(1)).unwrap();

        let mut reader = EventReader::new(buffer.as_slice());
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert!(matches!(err, FeedError::Malformed { line: 2, .. }), "{err}");
        assert!(reader.next().is_none(), "fused after fail-fast error");
    }

    #[test]
    fn bounds_reject_out_of_range_ids() {
        let bounds = FeedBounds { num_days: 20, num_cells: 7 };
        let mut ev = sample(1)[0];
        assert!(bounds.check(&ev).is_ok());
        ev.day = 20;
        assert_eq!(
            bounds.check(&ev).unwrap_err().to_string(),
            "day 20 out of range (study has 20 days)"
        );
        ev.day = 5;
        ev.cell = CellId(7);
        assert_eq!(
            bounds.check(&ev).unwrap_err().to_string(),
            "cell 7 out of range (topology has 7 cells)"
        );
    }
}
