//! Segment envelope: magic, version, kind, record count, CRC32.
//!
//! Every binary feed file is exactly one *segment*: a fixed
//! [`HEADER_LEN`]-byte little-endian header followed by a columnar
//! payload. The header carries everything a reader needs to decide
//! whether the payload is worth touching — format magic, version,
//! segment kind, the day shard, the record count, the payload length
//! and a CRC32 of the payload — so damage of any kind surfaces as a
//! typed [`SegmentError`] *before* the decoder dereferences a single
//! column, and surfaces identically whether the file was truncated,
//! bit-flipped, or written by a future incompatible version.
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "CSCF"
//!      4     2  version      u16 LE (readers reject != SEGMENT_VERSION)
//!      6     1  kind         1 = events, 2 = kpi, 3 = voice
//!      7     1  reserved     0
//!      8     2  day          u16 LE day shard (ALL_DAYS for voice)
//!     10     2  reserved     0
//!     12     4  records      u32 LE record count
//!     16     4  payload_len  u32 LE bytes after the header
//!     20     4  payload_crc  u32 LE CRC32 (IEEE) of the payload
//!     24     …  payload      columns, see `events`/the scenario codecs
//! ```
//!
//! All multi-byte values in header and payload are little-endian;
//! [`SegmentError`] is `Copy` and carries raw values only, so the
//! replay hot path can reject a damaged segment without allocating —
//! the same discipline as [`crate::export::BoundsViolation`].
//!
//! A feed *file* holds one or more segments back to back. Writers that
//! might exceed the header's `u32` ceilings split a day into multiple
//! segments ([`seal_segment`] refuses oversize payloads with
//! [`SegmentError::SegmentTooLarge`] instead of silently truncating);
//! readers either slice an in-memory byte run with [`split_segments`]
//! or stream a file segment-at-a-time through [`SegmentBlockReader`],
//! whose peak memory is one segment, not one file.

use std::fmt;
use std::io::Read;

/// File magic of a columnar feed segment ("CellScope Columnar Feed").
pub const SEGMENT_MAGIC: [u8; 4] = *b"CSCF";

/// Format version this build writes and accepts. Bump on any layout
/// change; readers reject every other version rather than guess.
pub const SEGMENT_VERSION: u16 = 1;

/// Fixed header size in bytes; the payload starts here.
pub const HEADER_LEN: usize = 24;

/// `day` value of segments that are not day-sharded (the voice feed
/// spans the whole study).
pub const ALL_DAYS: u16 = u16::MAX;

/// What a segment holds. The kind byte keeps a KPI file from being
/// decoded with the events schema even when both have valid checksums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SegmentKind {
    /// Per-day signaling events ([`crate::SignalingEvent`]).
    Events = 1,
    /// Per-day hourly cell KPI samples.
    Kpi = 2,
    /// Whole-study daily voice volumes.
    Voice = 3,
}

impl SegmentKind {
    fn from_u8(v: u8) -> Option<SegmentKind> {
        match v {
            1 => Some(SegmentKind::Events),
            2 => Some(SegmentKind::Kpi),
            3 => Some(SegmentKind::Voice),
            _ => None,
        }
    }
}

impl fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SegmentKind::Events => "events",
            SegmentKind::Kpi => "kpi",
            SegmentKind::Voice => "voice",
        };
        f.write_str(name)
    }
}

/// Parsed segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Segment kind.
    pub kind: SegmentKind,
    /// Day shard ([`ALL_DAYS`] when not day-sharded).
    pub day: u16,
    /// Records in the payload.
    pub records: u32,
    /// Payload bytes after the header.
    pub payload_len: u32,
    /// CRC32 (IEEE) of the payload bytes.
    pub payload_crc: u32,
}

/// Why a segment could not be decoded. `Copy`, carries raw values
/// only: rejecting a damaged multi-million-record segment costs no
/// allocation, and the message is rendered only when the error is
/// actually surfaced (fail-fast), mirroring `BoundsViolation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// Fewer than [`HEADER_LEN`] bytes: not even a header survives.
    HeaderTruncated {
        /// Bytes present.
        len: usize,
    },
    /// The first four bytes are not [`SEGMENT_MAGIC`].
    BadMagic {
        /// Bytes found.
        found: [u8; 4],
    },
    /// A version this build does not read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The kind byte names no known segment kind.
    BadKind {
        /// Kind byte found.
        found: u8,
    },
    /// A valid segment of the wrong kind for this decoder.
    WrongKind {
        /// Kind found in the header.
        found: SegmentKind,
        /// Kind the decoder expected.
        expected: SegmentKind,
    },
    /// The file ends before the payload the header declares.
    Truncated {
        /// Payload bytes the header promises.
        needed: usize,
        /// Payload bytes actually present.
        have: usize,
    },
    /// Bytes beyond the declared payload (a concatenation or overwrite
    /// artifact — one file is one segment, nothing may follow).
    TrailingBytes {
        /// Surplus byte count.
        extra: usize,
    },
    /// The payload does not hash to the checksum the header stored.
    ChecksumMismatch {
        /// CRC32 stored in the header.
        stored: u32,
        /// CRC32 computed over the payload.
        computed: u32,
    },
    /// A column needs more payload bytes than remain — the record
    /// count and the payload disagree (mid-column EOF).
    ColumnOverrun {
        /// Column being read.
        column: &'static str,
        /// Bytes the column needs.
        needed: usize,
        /// Bytes remaining in the payload.
        have: usize,
    },
    /// Payload bytes left over after the last column — the record
    /// count and the payload disagree in the other direction.
    ColumnUnderrun {
        /// Unconsumed payload bytes.
        extra: usize,
    },
    /// An enum-coded column holds a value outside its domain.
    BadEnum {
        /// Column with the bad value.
        column: &'static str,
        /// Value found.
        value: u8,
    },
    /// A dictionary index points past the dictionary.
    BadDictIndex {
        /// Index found.
        index: u32,
        /// Dictionary length.
        dict_len: u32,
    },
    /// The dictionary index-width byte is neither 2 nor 4.
    BadIndexWidth {
        /// Width byte found.
        found: u8,
    },
    /// The payload or record count exceeds the header's `u32` ceiling —
    /// the segment must be split, never silently truncated.
    SegmentTooLarge {
        /// Payload bytes the encoder produced.
        payload_len: u64,
        /// Records the encoder produced.
        records: u64,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::HeaderTruncated { len } => {
                write!(f, "segment truncated inside the header ({len} of {HEADER_LEN} bytes)")
            }
            SegmentError::BadMagic { found } => {
                write!(f, "bad segment magic {found:02x?} (expected {SEGMENT_MAGIC:02x?})")
            }
            SegmentError::UnsupportedVersion { found } => {
                write!(f, "unsupported segment version {found} (this build reads {SEGMENT_VERSION})")
            }
            SegmentError::BadKind { found } => {
                write!(f, "unknown segment kind byte {found}")
            }
            SegmentError::WrongKind { found, expected } => {
                write!(f, "segment holds {found} records, decoder expected {expected}")
            }
            SegmentError::Truncated { needed, have } => {
                write!(f, "segment truncated: header declares {needed} payload bytes, {have} present")
            }
            SegmentError::TrailingBytes { extra } => {
                write!(f, "{extra} bytes beyond the declared payload")
            }
            SegmentError::ChecksumMismatch { stored, computed } => {
                write!(f, "payload checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            SegmentError::ColumnOverrun { column, needed, have } => {
                write!(f, "column `{column}` overruns the payload ({needed} bytes needed, {have} left)")
            }
            SegmentError::ColumnUnderrun { extra } => {
                write!(f, "{extra} payload bytes left after the last column")
            }
            SegmentError::BadEnum { column, value } => {
                write!(f, "column `{column}` holds out-of-domain value {value}")
            }
            SegmentError::BadDictIndex { index, dict_len } => {
                write!(f, "dictionary index {index} out of range (dictionary has {dict_len} entries)")
            }
            SegmentError::BadIndexWidth { found } => {
                write!(f, "dictionary index width {found} (must be 2 or 4)")
            }
            SegmentError::SegmentTooLarge { payload_len, records } => {
                write!(
                    f,
                    "segment exceeds the format's u32 ceiling ({payload_len} payload bytes, {records} records) — split it into multiple segments"
                )
            }
        }
    }
}

impl std::error::Error for SegmentError {}

// CRC32 (IEEE 802.3, the zlib/PNG polynomial). Vendored rather than
// pulled in: the build is registry-free.
//
// Two kernels give the same values. On x86-64 CPUs with PCLMULQDQ,
// `clmul::fold` reduces whole 16-byte blocks by carry-less
// multiplication; the bytes it leaves over, inputs under 64 bytes and
// every input on other CPUs go through slicing-by-8.

/// The reflected IEEE polynomial: bit `31 - i` is the coefficient of
/// `x^i` (the `x^32` term is implied).
const CRC32_POLY: u32 = 0xEDB8_8320;

// Slicing-by-8: `table[k][b]` is the CRC of byte `b` followed by `k`
// zero bytes, so eight independent lookups fold eight input bytes per
// step.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut table = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = table[k - 1][i];
            table[k][i] = (prev >> 8) ^ table[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    table
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `fold` is compiled for pclmulqdq, sse2 and sse4.1;
        // the first two were detected just above, and sse2 is part of
        // every x86-64 CPU.
        let (state, tail) = unsafe { clmul::fold(!0, bytes) };
        return !slicing_by_8(state, tail);
    }
    !slicing_by_8(!0, bytes)
}

/// Advance the CRC register `c` (not inverted) over `bytes`.
fn slicing_by_8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 by carry-less multiplication (PCLMULQDQ folding, as in
/// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction", Intel, 2009, bit-reflected variant).
///
/// Four 128-bit lanes each take every fourth 16-byte block: a lane is
/// carried 64 bytes forward by multiplying its halves by `x^544` and
/// `x^480` mod P and adding the next block. The lanes then fold into
/// one (`x^160`, `x^96`), which takes the remaining whole blocks, is
/// narrowed to 64 bits (`x^96`, `x^64`), and a Barrett reduction
/// (P′, μ) leaves the 32-bit register. Every constant is bit-reflected
/// and shifted left by one, so a product lands where the reflected
/// register expects it; `derived_constants_match_the_polynomial`
/// recomputes them from `CRC32_POLY`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input worth folding: one block per lane.
    pub(super) const MIN_LEN: usize = 64;

    pub(super) const K1: i64 = 0x1_5444_2bd4; // x^(4*128+32) mod P
    pub(super) const K2: i64 = 0x1_c6e4_1596; // x^(4*128-32) mod P
    pub(super) const K3: i64 = 0x1_7519_97d0; // x^(128+32) mod P
    pub(super) const K4: i64 = 0x0_ccaa_009e; // x^(128-32) mod P
    pub(super) const K5: i64 = 0x1_63cd_6124; // x^64 mod P
    pub(super) const P_PRIME: i64 = 0x1_DB71_0641; // P itself
    pub(super) const MU: i64 = 0x1_F701_1641; // x^64 div P

    /// Advance the CRC register `state` (not inverted) over the whole
    /// 16-byte blocks of `bytes`, which holds at least [`MIN_LEN`]
    /// bytes, and return it with the 0–15 bytes left over.
    ///
    /// # Safety
    ///
    /// Calling it is `unsafe` outside code built for these target
    /// features: the caller must have checked that the CPU has them.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let block = |b: &[u8]| {
            let lo = i64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
            let hi = i64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
            _mm_set_epi64x(hi, lo)
        };
        // a.lo·k.lo + a.hi·k.hi + b: moves `a` forward by the distance
        // the pair `k` encodes, onto `b`.
        let carry = |a: __m128i, b: __m128i, k: __m128i| {
            let lo = _mm_clmulepi64_si128::<0x00>(a, k);
            let hi = _mm_clmulepi64_si128::<0x11>(a, k);
            _mm_xor_si128(_mm_xor_si128(lo, hi), b)
        };

        let mut quads = bytes.chunks_exact(64);
        let first = quads.next().expect("at least MIN_LEN bytes");
        let mut lanes = [0, 1, 2, 3].map(|i| block(&first[16 * i..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in &mut quads {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = carry(*lane, block(&quad[16 * i..]), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = carry(x, lane, k3k4);
        }
        let mut blocks = quads.remainder().chunks_exact(16);
        for b in &mut blocks {
            x = carry(x, block(b), k3k4);
        }

        // 128 → 64 bits: the low half times x^96, plus the high half;
        // then the low 32 bits times x^64, plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P′, and the
        // remainder is the upper 32 bits of R + T2.
        let p_mu = _mm_set_epi64x(MU, P_PRIME);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        let state = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        (state, blocks.remainder())
    }
}

fn u16_le(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn u32_le(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

impl SegmentHeader {
    /// Parse the fixed header. Checks structure only (length, magic,
    /// version, kind); payload length and checksum are the job of
    /// [`check_segment`], which needs the full byte run.
    pub fn parse(bytes: &[u8]) -> Result<SegmentHeader, SegmentError> {
        if bytes.len() < HEADER_LEN {
            return Err(SegmentError::HeaderTruncated { len: bytes.len() });
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&bytes[..4]);
        if magic != SEGMENT_MAGIC {
            return Err(SegmentError::BadMagic { found: magic });
        }
        let version = u16_le(bytes, 4);
        if version != SEGMENT_VERSION {
            return Err(SegmentError::UnsupportedVersion { found: version });
        }
        let kind = SegmentKind::from_u8(bytes[6])
            .ok_or(SegmentError::BadKind { found: bytes[6] })?;
        Ok(SegmentHeader {
            kind,
            day: u16_le(bytes, 8),
            records: u32_le(bytes, 12),
            payload_len: u32_le(bytes, 16),
            payload_crc: u32_le(bytes, 20),
        })
    }
}

/// Whether a byte run even claims to be a segment — the sniff the
/// dual-format replay reader uses to pick its decode path. Deliberately
/// magic-only: a truncated or corrupt segment must still be *routed* to
/// the binary decoder so its damage surfaces as a typed
/// [`SegmentError`], not as a JSON parse error.
pub fn looks_like_segment(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == SEGMENT_MAGIC
}

/// Record count a damaged segment *claims*, when the header is intact
/// enough to say. Lenient replay uses this to account a corrupt
/// segment's records as malformed instead of silently dropping an
/// unknown number of them.
pub fn peek_records(bytes: &[u8]) -> Option<u32> {
    SegmentHeader::parse(bytes).ok().map(|h| h.records)
}

/// Validate the envelope and return the parsed header plus the payload
/// slice: header structure, exact payload length (no truncation, no
/// trailing bytes) and checksum, in that order — so the caller learns
/// the *first* structural problem, stated in its own terms.
pub fn check_segment(
    bytes: &[u8],
    expected: SegmentKind,
) -> Result<(SegmentHeader, &[u8]), SegmentError> {
    let header = SegmentHeader::parse(bytes)?;
    if header.kind != expected {
        return Err(SegmentError::WrongKind { found: header.kind, expected });
    }
    let have = bytes.len() - HEADER_LEN;
    let needed = header.payload_len as usize;
    if have < needed {
        return Err(SegmentError::Truncated { needed, have });
    }
    if have > needed {
        return Err(SegmentError::TrailingBytes { extra: have - needed });
    }
    let payload = &bytes[HEADER_LEN..];
    let computed = crc32(payload);
    if computed != header.payload_crc {
        return Err(SegmentError::ChecksumMismatch {
            stored: header.payload_crc,
            computed,
        });
    }
    Ok((header, payload))
}

/// Open a segment being encoded: reserve the header bytes at the front
/// of `out` (the payload is appended after them; [`seal_segment`]
/// backpatches the header once the payload is complete).
pub fn begin_segment(out: &mut Vec<u8>) {
    out.clear();
    out.resize(HEADER_LEN, 0);
}

/// Finish a segment started with [`begin_segment`]: compute the payload
/// length and CRC over everything appended since, and write the header.
///
/// Both the payload length and the record count are checked against the
/// header's `u32` fields; an oversize segment returns
/// [`SegmentError::SegmentTooLarge`] (with the header left unwritten)
/// instead of silently truncating past 4 GiB — encoders split such days
/// into multiple segments.
pub fn seal_segment(
    out: &mut [u8],
    kind: SegmentKind,
    day: u16,
    records: usize,
) -> Result<(), SegmentError> {
    debug_assert!(out.len() >= HEADER_LEN);
    let payload = out.len() - HEADER_LEN;
    let (Ok(payload_len), Ok(records_u32)) =
        (u32::try_from(payload), u32::try_from(records))
    else {
        return Err(SegmentError::SegmentTooLarge {
            payload_len: payload as u64,
            records: records as u64,
        });
    };
    let crc = crc32(&out[HEADER_LEN..]);
    out[..4].copy_from_slice(&SEGMENT_MAGIC);
    out[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out[6] = kind as u8;
    out[7] = 0;
    out[8..10].copy_from_slice(&day.to_le_bytes());
    out[10..12].copy_from_slice(&0u16.to_le_bytes());
    out[12..16].copy_from_slice(&records_u32.to_le_bytes());
    out[16..20].copy_from_slice(&payload_len.to_le_bytes());
    out[20..24].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

// ---------------------------------------------------------------------
// Multi-segment files
// ---------------------------------------------------------------------

/// Iterator over the back-to-back segments of an in-memory byte run.
/// Each item is the exact byte slice of one segment (header included),
/// ready for a `decode_*_into` call; a malformed header or a trailing
/// partial segment surfaces as one final `Err`.
pub struct SegmentSplitter<'a> {
    rest: &'a [u8],
    failed: bool,
}

impl<'a> Iterator for SegmentSplitter<'a> {
    type Item = Result<&'a [u8], SegmentError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.rest.is_empty() {
            return None;
        }
        let header = match SegmentHeader::parse(self.rest) {
            Ok(h) => h,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        let total = HEADER_LEN + header.payload_len as usize;
        if self.rest.len() < total {
            self.failed = true;
            return Some(Err(SegmentError::Truncated {
                needed: header.payload_len as usize,
                have: self.rest.len() - HEADER_LEN,
            }));
        }
        let (seg, rest) = self.rest.split_at(total);
        self.rest = rest;
        Some(Ok(seg))
    }
}

/// Split an in-memory byte run into its back-to-back segments. A file
/// holding one segment yields exactly one slice — the legacy
/// one-segment-per-file layout is the 1-iteration case.
pub fn split_segments(bytes: &[u8]) -> SegmentSplitter<'_> {
    SegmentSplitter { rest: bytes, failed: false }
}

/// Total records a (possibly multi-segment) byte run *claims* across
/// every header that can still be parsed. Lenient replay uses this to
/// account a corrupt file's records as malformed instead of silently
/// dropping an unknown number of them. `None` when not even the first
/// header survives.
pub fn peek_total_records(bytes: &[u8]) -> Option<u64> {
    let mut rest = bytes;
    let mut total = 0u64;
    let mut any = false;
    while !rest.is_empty() {
        // A truncated tail still claims its header's records.
        let Ok(h) = SegmentHeader::parse(rest) else { break };
        total += u64::from(h.records);
        any = true;
        let seg_len = HEADER_LEN + h.payload_len as usize;
        if rest.len() < seg_len {
            break;
        }
        rest = &rest[seg_len..];
    }
    any.then_some(total)
}

/// A streaming-read failure: either the underlying I/O or the segment
/// structure.
#[derive(Debug)]
pub enum SegmentStreamError {
    /// The reader failed.
    Io(std::io::Error),
    /// The byte stream is not a well-formed segment sequence.
    Format(SegmentError),
}

impl fmt::Display for SegmentStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentStreamError::Io(e) => write!(f, "segment stream I/O error: {e}"),
            SegmentStreamError::Format(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SegmentStreamError {}

impl From<std::io::Error> for SegmentStreamError {
    fn from(e: std::io::Error) -> Self {
        SegmentStreamError::Io(e)
    }
}

impl From<SegmentError> for SegmentStreamError {
    fn from(e: SegmentError) -> Self {
        SegmentStreamError::Format(e)
    }
}

/// Bounded block reader over a segment stream: reads one segment at a
/// time into a reused internal buffer, so peak memory is the largest
/// *segment*, not the file. The buffer grows in bounded chunks while
/// real bytes arrive — a corrupt header claiming a 4 GiB payload on a
/// 1 KiB file fails with [`SegmentError::Truncated`] after one chunk
/// instead of attempting a 4 GiB allocation.
pub struct SegmentBlockReader<R> {
    inner: R,
    buf: Vec<u8>,
    bytes_read: u64,
    done: bool,
}

/// Growth step of the streaming read buffer.
const READ_CHUNK: usize = 8 << 20;

/// Read until `out` is full or EOF; returns the bytes filled.
fn read_full<R: Read>(inner: &mut R, out: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < out.len() {
        match inner.read(&mut out[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

impl<R: Read> SegmentBlockReader<R> {
    /// Wrap a reader positioned at the first segment.
    pub fn new(inner: R) -> SegmentBlockReader<R> {
        SegmentBlockReader { inner, buf: Vec::new(), bytes_read: 0, done: false }
    }

    /// Bytes consumed from the underlying reader so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Read the next segment into the internal buffer and return its
    /// exact byte slice (header included), or `None` at a clean EOF.
    /// The slice is valid until the next call.
    pub fn next_segment(&mut self) -> Result<Option<&[u8]>, SegmentStreamError> {
        if self.done {
            return Ok(None);
        }
        self.buf.clear();
        self.buf.resize(HEADER_LEN, 0);
        let got = read_full(&mut self.inner, &mut self.buf[..HEADER_LEN])?;
        self.bytes_read += got as u64;
        if got == 0 {
            self.done = true;
            return Ok(None);
        }
        if got < HEADER_LEN {
            self.done = true;
            return Err(SegmentError::HeaderTruncated { len: got }.into());
        }
        let header = match SegmentHeader::parse(&self.buf) {
            Ok(h) => h,
            Err(e) => {
                self.done = true;
                return Err(e.into());
            }
        };
        let needed = header.payload_len as usize;
        let mut have = 0;
        while have < needed {
            let chunk = (needed - have).min(READ_CHUNK);
            let old = self.buf.len();
            self.buf.resize(old + chunk, 0);
            let got = read_full(&mut self.inner, &mut self.buf[old..])?;
            self.bytes_read += got as u64;
            have += got;
            if got < chunk {
                self.buf.truncate(HEADER_LEN + have);
                self.done = true;
                return Err(SegmentError::Truncated { needed, have }.into());
            }
        }
        Ok(Some(&self.buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE CRC32 check value ("123456789" -> 0xCBF43926).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"\x00"), 0xD202_EF8D);
    }

    /// The CRC register advanced one byte at a time, straight from
    /// the polynomial: the definition both kernels are held to.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// Deterministic pseudo-random bytes (splitmix64).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn crc32_matches_the_bytewise_definition() {
        // Every length across the fold's minimum, its 64-byte steps and
        // its 16-byte tail, at every alignment within a block.
        let data = noise(1024 + 16, 1);
        for start in 0..16 {
            for len in 0..=1024 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {start} length {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_the_bytewise_definition_on_large_buffers() {
        for (len, seed) in [(1 << 21 | 1, 2), (3 << 20 | 0x3F, 3), ((5 << 20) - 7, 4)] {
            let data = noise(len, seed);
            assert_eq!(crc32(&data), bytewise(&data), "length {len}");
        }
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_definition() {
        // The portable kernel on its own: on a CPU with PCLMULQDQ,
        // `crc32` hands it only inputs under 64 bytes and fold tails.
        let data = noise(1024 + 16, 5);
        for start in 0..9 {
            for len in (0..=1024).step_by(7) {
                let bytes = &data[start..start + len];
                assert_eq!(!slicing_by_8(!0, bytes), bytewise(bytes), "offset {start} length {len}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn derived_constants_match_the_polynomial() {
        // P in normal bit order: bit i is the coefficient of x^i.
        let p = (CRC32_POLY.reverse_bits() as u64) | 1 << 32;
        let x_pow_mod_p = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r & 1 << 32 != 0 {
                    r ^= p;
                }
            }
            r as u32
        };
        // A 32-bit remainder, reflected and shifted left by one.
        let folding = |n: u32| (x_pow_mod_p(n).reverse_bits() as i64) << 1;
        // A 33-bit polynomial, reflected.
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        // μ = x^64 div P, by long division.
        let mut rem = 1u128 << 64;
        let mut quotient = 0u64;
        for bit in (0..=32).rev() {
            if rem & 1 << (bit + 32) != 0 {
                rem ^= (p as u128) << bit;
                quotient |= 1 << bit;
            }
        }
        assert_eq!(folding(4 * 128 + 32), clmul::K1);
        assert_eq!(folding(4 * 128 - 32), clmul::K2);
        assert_eq!(folding(128 + 32), clmul::K3);
        assert_eq!(folding(128 - 32), clmul::K4);
        assert_eq!(folding(64), clmul::K5);
        assert_eq!(reflect33(p), clmul::P_PRIME);
        assert_eq!(reflect33(quotient), clmul::MU);
    }

    #[test]
    fn seal_then_check_roundtrips() {
        let mut buf = Vec::new();
        begin_segment(&mut buf);
        buf.extend_from_slice(b"payload bytes");
        seal_segment(&mut buf, SegmentKind::Events, 7, 3).unwrap();
        let (header, payload) =
            check_segment(&buf, SegmentKind::Events).expect("valid segment");
        assert_eq!(header.kind, SegmentKind::Events);
        assert_eq!(header.day, 7);
        assert_eq!(header.records, 3);
        assert_eq!(payload, b"payload bytes");
        assert!(looks_like_segment(&buf));
        assert_eq!(peek_records(&buf), Some(3));
    }

    #[test]
    fn envelope_damage_is_typed() {
        let mut buf = Vec::new();
        begin_segment(&mut buf);
        buf.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        seal_segment(&mut buf, SegmentKind::Kpi, 0, 2).unwrap();

        // Header truncation.
        assert!(matches!(
            check_segment(&buf[..10], SegmentKind::Kpi),
            Err(SegmentError::HeaderTruncated { len: 10 })
        ));
        // Payload truncation.
        assert!(matches!(
            check_segment(&buf[..buf.len() - 3], SegmentKind::Kpi),
            Err(SegmentError::Truncated { needed: 8, have: 5 })
        ));
        // Trailing bytes.
        let mut long = buf.clone();
        long.push(0xAB);
        assert!(matches!(
            check_segment(&long, SegmentKind::Kpi),
            Err(SegmentError::TrailingBytes { extra: 1 })
        ));
        // Bit flip in the payload.
        let mut flipped = buf.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            check_segment(&flipped, SegmentKind::Kpi),
            Err(SegmentError::ChecksumMismatch { .. })
        ));
        // Bad magic.
        let mut magic = buf.clone();
        magic[0] ^= 0xFF;
        assert!(matches!(
            check_segment(&magic, SegmentKind::Kpi),
            Err(SegmentError::BadMagic { .. })
        ));
        assert!(!looks_like_segment(&magic));
        // Future version.
        let mut vers = buf.clone();
        vers[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert!(matches!(
            check_segment(&vers, SegmentKind::Kpi),
            Err(SegmentError::UnsupportedVersion { found: 99 })
        ));
        // Unknown kind byte.
        let mut kind = buf.clone();
        kind[6] = 200;
        assert!(matches!(
            check_segment(&kind, SegmentKind::Kpi),
            Err(SegmentError::BadKind { found: 200 })
        ));
        // Valid segment, wrong decoder.
        assert!(matches!(
            check_segment(&buf, SegmentKind::Events),
            Err(SegmentError::WrongKind {
                found: SegmentKind::Kpi,
                expected: SegmentKind::Events
            })
        ));
    }

    #[test]
    fn errors_render_without_panicking() {
        let errors: [SegmentError; 6] = [
            SegmentError::BadMagic { found: [0, 1, 2, 3] },
            SegmentError::ChecksumMismatch { stored: 1, computed: 2 },
            SegmentError::ColumnOverrun { column: "anon_id", needed: 80, have: 3 },
            SegmentError::BadDictIndex { index: 9, dict_len: 2 },
            SegmentError::BadEnum { column: "event", value: 77 },
            SegmentError::SegmentTooLarge { payload_len: 5_000_000_000, records: 7 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    /// An oversize *record count* already trips the checked seal — the
    /// cheapest way to exercise the u32-ceiling path without building a
    /// 4 GiB payload.
    #[test]
    fn seal_rejects_oversize_record_counts() {
        let mut buf = Vec::new();
        begin_segment(&mut buf);
        buf.extend_from_slice(b"xy");
        let err = seal_segment(&mut buf, SegmentKind::Events, 0, u32::MAX as usize + 1)
            .unwrap_err();
        assert!(matches!(
            err,
            SegmentError::SegmentTooLarge { payload_len: 2, records } if records == u32::MAX as u64 + 1
        ));
    }

    fn two_segments() -> (Vec<u8>, usize) {
        let mut a = Vec::new();
        begin_segment(&mut a);
        a.extend_from_slice(b"first");
        seal_segment(&mut a, SegmentKind::Events, 1, 2).unwrap();
        let first_len = a.len();
        let mut b = Vec::new();
        begin_segment(&mut b);
        b.extend_from_slice(b"second-payload");
        seal_segment(&mut b, SegmentKind::Events, 1, 5).unwrap();
        a.extend_from_slice(&b);
        (a, first_len)
    }

    #[test]
    fn splitter_yields_back_to_back_segments() {
        let (bytes, first_len) = two_segments();
        let segs: Vec<_> = split_segments(&bytes).collect::<Result<_, _>>().unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len(), first_len);
        check_segment(segs[0], SegmentKind::Events).unwrap();
        check_segment(segs[1], SegmentKind::Events).unwrap();
        assert_eq!(peek_total_records(&bytes), Some(7));
    }

    #[test]
    fn splitter_reports_truncated_tail() {
        let (bytes, first_len) = two_segments();
        let cut = &bytes[..bytes.len() - 4];
        let mut it = split_segments(cut);
        assert_eq!(it.next().unwrap().unwrap().len(), first_len);
        assert!(matches!(it.next(), Some(Err(SegmentError::Truncated { .. }))));
        assert!(it.next().is_none());
        // Both headers parse, so both claims count.
        assert_eq!(peek_total_records(cut), Some(7));
    }

    #[test]
    fn block_reader_streams_segments_and_counts_bytes() {
        let (bytes, first_len) = two_segments();
        let mut reader = SegmentBlockReader::new(&bytes[..]);
        let seg = reader.next_segment().unwrap().unwrap();
        assert_eq!(seg.len(), first_len);
        let (h, payload) = check_segment(seg, SegmentKind::Events).unwrap();
        assert_eq!((h.records, payload), (2, &b"first"[..]));
        let seg = reader.next_segment().unwrap().unwrap();
        check_segment(seg, SegmentKind::Events).unwrap();
        assert!(reader.next_segment().unwrap().is_none());
        assert_eq!(reader.bytes_read(), bytes.len() as u64);
    }

    #[test]
    fn block_reader_types_truncation_and_garbage() {
        let (bytes, _) = two_segments();
        let mut reader = SegmentBlockReader::new(&bytes[..bytes.len() - 4]);
        reader.next_segment().unwrap().unwrap();
        assert!(matches!(
            reader.next_segment(),
            Err(SegmentStreamError::Format(SegmentError::Truncated { .. }))
        ));
        // After an error the stream is done, not looping.
        assert!(reader.next_segment().unwrap().is_none());

        // A full header's worth of garbage is a magic failure; anything
        // shorter is typed as header truncation instead.
        let mut reader = SegmentBlockReader::new(&b"definitely not a segment at all"[..]);
        assert!(matches!(
            reader.next_segment(),
            Err(SegmentStreamError::Format(SegmentError::BadMagic { .. }))
        ));
        let mut reader = SegmentBlockReader::new(&b"short garbage"[..]);
        assert!(matches!(
            reader.next_segment(),
            Err(SegmentStreamError::Format(SegmentError::HeaderTruncated { len: 13 }))
        ));
    }
}
