//! Per-cell daily KPI records and group statistics.
//!
//! Section 2.4: "For all the hourly metrics, we further aggregate them
//! per day and extract the (hourly) median value per cell. This allows
//! to capture one single value per metric per day." [`CellDayMetrics`]
//! is that per-cell-day record; [`KpiTable`] holds the study's worth of
//! them and answers the questions the network-performance figures ask:
//! median across a set of cells per day/week, as Δ% vs week 9.
//!
//! # The columnar aggregation engine
//!
//! Every figure query groups by day and then selects one field across a
//! cell subset. The row-oriented record vector answers that by
//! rescanning all records per (field, cell-set, day) query — the
//! dominant analysis cost at scale. [`KpiColumns`] is a day-sharded,
//! column-per-field index built lazily from the records: shard `d`
//! holds day `d`'s cell ids plus one contiguous `f32` column per
//! [`KpiField`]. Queries walk one shard per day, evaluate the cell
//! filter **once** per record (not once per field), and compute order
//! statistics by O(n) selection. Results are bit-identical to the
//! naive scan (`daily_median_naive`/`daily_percentile_naive`, kept as
//! the reference) because the per-(day, filter) value multisets are
//! equal and medians/percentiles are order-invariant under `total_cmp`.
//!
//! The index lives behind a [`OnceLock`] and is invalidated by every
//! `&mut` access (`push`, `merge`, `records_mut`), so callers never see
//! a stale view; concurrent figure builders share one build.

use crate::baseline::DeltaSeries;
use crate::stats;
use cellscope_time::{IsoWeek, SimClock};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// One hourly KPI sample, generator-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HourlyKpiSample {
    /// Downlink volume, MB (all QCI 1–8 bearers).
    pub dl_volume_mb: f64,
    /// Uplink volume, MB.
    pub ul_volume_mb: f64,
    /// Average active DL users.
    pub active_dl_users: f64,
    /// Total connected users.
    pub connected_users: f64,
    /// Average user DL throughput, Mbit/s.
    pub user_dl_throughput_mbps: f64,
    /// TTI utilization, 0–1.
    pub tti_utilization: f64,
    /// Voice (QCI 1) volume, MB.
    pub voice_volume_mb: f64,
    /// Simultaneous voice users.
    pub voice_users: f64,
    /// Voice UL packet loss rate.
    pub voice_ul_loss: f64,
    /// Voice DL packet loss rate.
    pub voice_dl_loss: f64,
}

/// One cell-day: the per-metric medians of the day's hourly samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellDayMetrics {
    /// Cell key (cell id in the synthetic world).
    pub cell: u32,
    /// Study day.
    pub day: u16,
    /// Medians of the hourly samples (f32: the table is large).
    pub dl_volume_mb: f32,
    pub ul_volume_mb: f32,
    pub active_dl_users: f32,
    pub connected_users: f32,
    pub user_dl_throughput_mbps: f32,
    pub tti_utilization: f32,
    pub voice_volume_mb: f32,
    pub voice_users: f32,
    pub voice_ul_loss: f32,
    pub voice_dl_loss: f32,
}

/// Selector for one metric of [`CellDayMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KpiField {
    /// Downlink data volume.
    DlVolume,
    /// Uplink data volume.
    UlVolume,
    /// Active downlink users.
    ActiveDlUsers,
    /// Total connected users.
    ConnectedUsers,
    /// Average user DL throughput.
    UserDlThroughput,
    /// Cell resource utilization (TTI).
    TtiUtilization,
    /// Conversational-voice volume.
    VoiceVolume,
    /// Simultaneous voice users.
    VoiceUsers,
    /// Voice uplink packet loss rate.
    VoiceUlLoss,
    /// Voice downlink packet loss rate.
    VoiceDlLoss,
}

impl KpiField {
    /// Number of fields (= columns per day shard).
    pub const COUNT: usize = 10;

    /// All fields, in Fig. 8/9 order.
    pub const ALL: [KpiField; KpiField::COUNT] = [
        KpiField::DlVolume,
        KpiField::UlVolume,
        KpiField::ActiveDlUsers,
        KpiField::ConnectedUsers,
        KpiField::UserDlThroughput,
        KpiField::TtiUtilization,
        KpiField::VoiceVolume,
        KpiField::VoiceUsers,
        KpiField::VoiceUlLoss,
        KpiField::VoiceDlLoss,
    ];

    /// Dense column index, `0..COUNT`, in [`KpiField::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            KpiField::DlVolume => 0,
            KpiField::UlVolume => 1,
            KpiField::ActiveDlUsers => 2,
            KpiField::ConnectedUsers => 3,
            KpiField::UserDlThroughput => 4,
            KpiField::TtiUtilization => 5,
            KpiField::VoiceVolume => 6,
            KpiField::VoiceUsers => 7,
            KpiField::VoiceUlLoss => 8,
            KpiField::VoiceDlLoss => 9,
        }
    }

    /// Plot title as used in the paper's figures.
    pub fn title(self) -> &'static str {
        match self {
            KpiField::DlVolume => "Downlink Data Volume",
            KpiField::UlVolume => "Uplink Data Volume",
            KpiField::ActiveDlUsers => "Downlink Active Users",
            KpiField::ConnectedUsers => "Total Number of Users",
            KpiField::UserDlThroughput => "User Downlink Throughput",
            KpiField::TtiUtilization => "Cell Resource Utilization",
            KpiField::VoiceVolume => "Voice Traffic Volume",
            KpiField::VoiceUsers => "Voice Simultaneous Users",
            KpiField::VoiceUlLoss => "Voice Uplink Packet Error Loss Rate",
            KpiField::VoiceDlLoss => "Voice Downlink Packet Error Loss Rate",
        }
    }
}

impl HourlyKpiSample {
    /// Read one metric.
    pub fn get(&self, field: KpiField) -> f64 {
        self.lanes()[field.index()]
    }

    /// The ten metrics as lanes, in [`KpiField::ALL`] order.
    fn lanes(&self) -> [f64; KpiField::COUNT] {
        [
            self.dl_volume_mb,
            self.ul_volume_mb,
            self.active_dl_users,
            self.connected_users,
            self.user_dl_throughput_mbps,
            self.tti_utilization,
            self.voice_volume_mb,
            self.voice_users,
            self.voice_ul_loss,
            self.voice_dl_loss,
        ]
    }
}

/// Hourly samples in a full reporting cell-day.
const HOURS_PER_DAY: usize = 24;

/// Median selection network for 24 inputs: Batcher's odd–even merge
/// sort on 32 wires, without the comparators that touch wires 24..32
/// (they would only ever compare against +∞ padding) and pruned to the
/// comparators that feed wires 11 and 12. Applied as `(i, j)` → wire
/// `i` takes the minimum, wire `j` the maximum, it leaves ranks 11 and
/// 12 on wires 11 and 12. The unit tests regenerate it from Batcher's
/// construction and check it exhaustively over every 0-1 input.
#[rustfmt::skip]
const MEDIAN24_NETWORK: [(u8, u8); 108] = [
    (0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15),
    (16, 17), (18, 19), (20, 21), (22, 23), (0, 2), (1, 3), (4, 6), (5, 7),
    (8, 10), (9, 11), (12, 14), (13, 15), (16, 18), (17, 19), (20, 22), (21, 23),
    (1, 2), (5, 6), (9, 10), (13, 14), (17, 18), (21, 22), (0, 4), (1, 5),
    (2, 6), (3, 7), (8, 12), (9, 13), (10, 14), (11, 15), (16, 20), (17, 21),
    (18, 22), (19, 23), (2, 4), (3, 5), (10, 12), (11, 13), (18, 20), (19, 21),
    (1, 2), (3, 4), (5, 6), (9, 10), (11, 12), (13, 14), (17, 18), (19, 20),
    (21, 22), (0, 8), (1, 9), (2, 10), (3, 11), (4, 12), (5, 13), (6, 14),
    (7, 15), (4, 8), (5, 9), (6, 10), (7, 11), (2, 4), (3, 5), (6, 8),
    (7, 9), (10, 12), (11, 13), (18, 20), (19, 21), (1, 2), (3, 4), (5, 6),
    (7, 8), (9, 10), (11, 12), (13, 14), (17, 18), (19, 20), (21, 22), (0, 16),
    (1, 17), (2, 18), (3, 19), (4, 20), (5, 21), (6, 22), (7, 23), (8, 16),
    (9, 17), (10, 18), (11, 19), (12, 20), (13, 21), (6, 10), (7, 11), (12, 16),
    (13, 17), (10, 12), (11, 13), (11, 12),
];

/// The ten medians of a full 24-hour cell-day in one pass: the samples
/// sit as 24 rows of ten lanes and [`MEDIAN24_NETWORK`] runs over the
/// rows, each comparator a lane-wise min/max by `<`.
///
/// Bit-identical to per-field `stats::median_unstable`: for non-NaN
/// values `<` agrees with `total_cmp` except on +0.0 against −0.0, so
/// with neither NaN nor −0.0 present, values equal under `<` have equal
/// bits and the network's ranks 11 and 12 are the selection's. The
/// midpoint then repeats `percentile_unstable`'s arithmetic at rank
/// 11.5. Returns `None` (the caller falls back to selection) for any
/// other length, a NaN or a −0.0.
fn medians_24h(hours: &[HourlyKpiSample]) -> Option<[f64; KpiField::COUNT]> {
    let hours: &[HourlyKpiSample; HOURS_PER_DAY] = hours.try_into().ok()?;
    let mut rows = [[0.0f64; KpiField::COUNT]; HOURS_PER_DAY];
    let mut exotic = false;
    for (row, h) in rows.iter_mut().zip(hours) {
        *row = h.lanes();
        for v in row.iter() {
            exotic |= v.is_nan() | (v.to_bits() == (-0.0f64).to_bits());
        }
    }
    if exotic {
        return None;
    }
    for &(i, j) in &MEDIAN24_NETWORK {
        let (mut lo, mut hi) = (rows[i as usize], rows[j as usize]);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            *a = if y < x { y } else { x };
            *b = if y < x { x } else { y };
        }
        rows[i as usize] = lo;
        rows[j as usize] = hi;
    }
    let frac = 0.5;
    Some(std::array::from_fn(|k| {
        rows[11][k] * (1.0 - frac) + rows[12][k] * frac
    }))
}

impl CellDayMetrics {
    /// Collapse one cell-day's hourly samples into the daily record
    /// (median per metric). Returns `None` for an empty day.
    pub fn from_hourly(cell: u32, day: u16, hours: &[HourlyKpiSample]) -> Option<CellDayMetrics> {
        if hours.is_empty() {
            return None;
        }
        let medians = medians_24h(hours).unwrap_or_else(|| {
            std::array::from_fn(|k| {
                let m = if hours.len() <= HOURS_PER_DAY {
                    let mut buf = [0.0f64; HOURS_PER_DAY];
                    for (slot, h) in buf.iter_mut().zip(hours) {
                        *slot = h.lanes()[k];
                    }
                    stats::median_unstable(&mut buf[..hours.len()])
                } else {
                    let mut vals: Vec<f64> = hours.iter().map(|h| h.lanes()[k]).collect();
                    stats::median_unstable(&mut vals)
                };
                m.expect("non-empty, NaN-free hourly samples")
            })
        });
        let m = medians.map(|v| v as f32);
        Some(CellDayMetrics {
            cell,
            day,
            dl_volume_mb: m[0],
            ul_volume_mb: m[1],
            active_dl_users: m[2],
            connected_users: m[3],
            user_dl_throughput_mbps: m[4],
            tti_utilization: m[5],
            voice_volume_mb: m[6],
            voice_users: m[7],
            voice_ul_loss: m[8],
            voice_dl_loss: m[9],
        })
    }

    /// Read one metric.
    pub fn get(&self, field: KpiField) -> f64 {
        self.get_f32(field) as f64
    }

    /// Read one metric at storage precision.
    pub fn get_f32(&self, field: KpiField) -> f32 {
        match field {
            KpiField::DlVolume => self.dl_volume_mb,
            KpiField::UlVolume => self.ul_volume_mb,
            KpiField::ActiveDlUsers => self.active_dl_users,
            KpiField::ConnectedUsers => self.connected_users,
            KpiField::UserDlThroughput => self.user_dl_throughput_mbps,
            KpiField::TtiUtilization => self.tti_utilization,
            KpiField::VoiceVolume => self.voice_volume_mb,
            KpiField::VoiceUsers => self.voice_users,
            KpiField::VoiceUlLoss => self.voice_ul_loss,
            KpiField::VoiceDlLoss => self.voice_dl_loss,
        }
    }
}

/// One day's slice of the columnar index: the cell ids observed that
/// day plus one contiguous value column per [`KpiField`], all parallel.
#[derive(Debug, Clone, Default)]
struct DayShard {
    cells: Vec<u32>,
    columns: [Vec<f32>; KpiField::COUNT],
}

/// The day-sharded, column-per-field index over a [`KpiTable`].
///
/// Built once (lazily) per table state; see the module docs for the
/// layout and the bit-identity argument.
#[derive(Debug, Clone, Default)]
pub struct KpiColumns {
    shards: Vec<DayShard>,
}

impl KpiColumns {
    fn build(records: &[CellDayMetrics]) -> KpiColumns {
        let num_days = records.iter().map(|r| r.day as usize + 1).max().unwrap_or(0);
        let mut counts = vec![0usize; num_days];
        for r in records {
            counts[r.day as usize] += 1;
        }
        let mut shards: Vec<DayShard> = counts
            .into_iter()
            .map(|n| DayShard {
                cells: Vec::with_capacity(n),
                columns: std::array::from_fn(|_| Vec::with_capacity(n)),
            })
            .collect();
        for r in records {
            let shard = &mut shards[r.day as usize];
            shard.cells.push(r.cell);
            for field in KpiField::ALL {
                shard.columns[field.index()].push(r.get_f32(field));
            }
        }
        KpiColumns { shards }
    }

    /// Days covered (max record day + 1).
    pub fn num_days(&self) -> usize {
        self.shards.len()
    }

    /// Records in one day's shard.
    pub fn day_len(&self, day: usize) -> usize {
        self.shards.get(day).map_or(0, |s| s.cells.len())
    }
}

/// The study's per-cell-day KPI table.
///
/// Row storage (`records`) is canonical — it is what serializes and
/// compares — with the columnar index attached lazily for queries.
#[derive(Debug, Clone, Default)]
pub struct KpiTable {
    records: Vec<CellDayMetrics>,
    index: OnceLock<KpiColumns>,
}

/// Equality is over the canonical records; the lazy index is a cache.
impl PartialEq for KpiTable {
    fn eq(&self, other: &KpiTable) -> bool {
        self.records == other.records
    }
}

/// Serializes exactly like the former `#[derive(Serialize)]` on a
/// records-only struct, so feed/JSON compatibility is unchanged.
impl Serialize for KpiTable {
    fn to_content(&self) -> serde::Content {
        serde::Content::Struct(vec![("records", self.records.to_content())])
    }
}

impl Deserialize for KpiTable {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let fields = serde::de::fields(content)?;
        Ok(KpiTable {
            records: serde::de::field(&fields, "records")?,
            index: OnceLock::new(),
        })
    }
}

impl KpiTable {
    /// Empty table.
    pub fn new() -> KpiTable {
        KpiTable::default()
    }

    /// Append one record.
    pub fn push(&mut self, record: CellDayMetrics) {
        self.index.take();
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[CellDayMetrics] {
        &self.records
    }

    /// Mutable access to all records (post-processing passes, e.g.
    /// applying a network-wide daily loss component). Drops the
    /// columnar index; it rebuilds on the next query.
    pub fn records_mut(&mut self) -> &mut [CellDayMetrics] {
        self.index.take();
        &mut self.records
    }

    /// Append every record of another table (parallel-fold merge).
    pub fn merge(&mut self, other: KpiTable) {
        self.index.take();
        self.records.extend(other.records);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The columnar index for the current records, building it on first
    /// use. Thread-safe: concurrent figure builders share one build.
    pub fn columns(&self) -> &KpiColumns {
        self.index.get_or_init(|| KpiColumns::build(&self.records))
    }

    /// Daily median of `field` across the cells selected by `filter`.
    ///
    /// `filter` is evaluated once per record in day-shard order; it
    /// must be a pure predicate of the cell id.
    pub fn daily_median(
        &self,
        field: KpiField,
        num_days: usize,
        filter: impl FnMut(u32) -> bool,
    ) -> Vec<Option<f64>> {
        self.daily_percentile(field, 50.0, num_days, filter)
    }

    /// Daily percentile variant (for the 90th-percentile voice series).
    pub fn daily_percentile(
        &self,
        field: KpiField,
        p: f64,
        num_days: usize,
        mut filter: impl FnMut(u32) -> bool,
    ) -> Vec<Option<f64>> {
        let cols = self.columns();
        let mut out = vec![None; num_days];
        let mut buf: Vec<f64> = Vec::new();
        for (day, slot) in out.iter_mut().enumerate().take(cols.shards.len()) {
            let shard = &cols.shards[day];
            let column = &shard.columns[field.index()];
            buf.clear();
            for (i, &cell) in shard.cells.iter().enumerate() {
                if filter(cell) {
                    buf.push(column[i] as f64);
                }
            }
            *slot = stats::percentile_unstable(&mut buf, p);
        }
        out
    }

    /// One-pass multi-field daily medians: evaluates `filter` once per
    /// record per day and reads every requested field's column off that
    /// single row selection. Returns `out[field_idx][day]`, where
    /// `field_idx` indexes `fields`. Bit-identical to calling
    /// [`KpiTable::daily_median`] per field.
    pub fn daily_medians_multi(
        &self,
        fields: &[KpiField],
        num_days: usize,
        mut filter: impl FnMut(u32) -> bool,
    ) -> Vec<Vec<Option<f64>>> {
        let cols = self.columns();
        let mut out = vec![vec![None; num_days]; fields.len()];
        let mut keep: Vec<u32> = Vec::new();
        let mut buf: Vec<f64> = Vec::new();
        for day in 0..num_days.min(cols.shards.len()) {
            let shard = &cols.shards[day];
            keep.clear();
            for (i, &cell) in shard.cells.iter().enumerate() {
                if filter(cell) {
                    keep.push(i as u32);
                }
            }
            if keep.is_empty() {
                continue;
            }
            for (fi, field) in fields.iter().enumerate() {
                let column = &shard.columns[field.index()];
                buf.clear();
                buf.extend(keep.iter().map(|&i| column[i as usize] as f64));
                out[fi][day] = stats::median_unstable(&mut buf);
            }
        }
        out
    }

    /// Reference implementation of [`KpiTable::daily_median`]: the
    /// original full-table rescan with clone-and-sort medians. Used by
    /// the equivalence property tests and as the baseline side of the
    /// aggregation benches.
    pub fn daily_median_naive(
        &self,
        field: KpiField,
        num_days: usize,
        filter: impl FnMut(u32) -> bool,
    ) -> Vec<Option<f64>> {
        self.daily_percentile_naive(field, 50.0, num_days, filter)
    }

    /// Reference implementation of [`KpiTable::daily_percentile`]; see
    /// [`KpiTable::daily_median_naive`].
    pub fn daily_percentile_naive(
        &self,
        field: KpiField,
        p: f64,
        num_days: usize,
        mut filter: impl FnMut(u32) -> bool,
    ) -> Vec<Option<f64>> {
        let mut per_day: Vec<Vec<f64>> = vec![Vec::new(); num_days];
        for r in &self.records {
            if (r.day as usize) < num_days && filter(r.cell) {
                per_day[r.day as usize].push(r.get(field));
            }
        }
        per_day
            .into_iter()
            .map(|v| stats::percentile_ref(&v, p))
            .collect()
    }

    /// Baseline-relative series of `field` over the selected cells.
    pub fn delta_series(
        &self,
        field: KpiField,
        clock: SimClock,
        baseline_week: IsoWeek,
        filter: impl FnMut(u32) -> bool,
    ) -> DeltaSeries {
        let daily = self.daily_median(field, clock.num_days(), filter);
        DeltaSeries::new(clock, daily, baseline_week)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(dl: f64) -> HourlyKpiSample {
        HourlyKpiSample {
            dl_volume_mb: dl,
            ul_volume_mb: dl / 10.0,
            active_dl_users: 3.0,
            connected_users: 50.0,
            user_dl_throughput_mbps: 6.0,
            tti_utilization: 0.2,
            voice_volume_mb: 1.0,
            voice_users: 0.5,
            voice_ul_loss: 0.001,
            voice_dl_loss: 0.002,
        }
    }

    #[test]
    fn from_hourly_takes_medians() {
        let hours: Vec<_> = (0..24).map(|h| sample(h as f64)).collect();
        let day = CellDayMetrics::from_hourly(7, 3, &hours).unwrap();
        assert_eq!(day.cell, 7);
        assert_eq!(day.day, 3);
        assert_eq!(day.dl_volume_mb, 11.5); // median of 0..=23
        assert_eq!(day.connected_users, 50.0);
        assert!(CellDayMetrics::from_hourly(7, 3, &[]).is_none());
    }

    /// Batcher's odd–even merge sort on `n` wires (a power of two), in
    /// its usual iterative order: merge stages of size `p` = 1, 2, 4, …,
    /// and within a stage comparator distances `k` = `p`, `p`/2, …, 1.
    fn batcher_odd_even_merge_sort(n: usize) -> Vec<(usize, usize)> {
        let mut net = Vec::new();
        let mut p = 1;
        while p < n {
            let mut k = p;
            while k >= 1 {
                let mut j = k % p;
                while j + k < n {
                    for i in 0..k.min(n - j - k) {
                        if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                            net.push((i + j, i + j + k));
                        }
                    }
                    j += 2 * k;
                }
                k /= 2;
            }
            p *= 2;
        }
        net
    }

    #[test]
    fn median_network_is_pruned_batcher() {
        let full = batcher_odd_even_merge_sort(32);
        assert_eq!(full.len(), 191);
        // Wires 24..32 would hold +∞ padding: every comparator touching
        // them is a no-op.
        let sort24: Vec<_> = full
            .into_iter()
            .filter(|&(_, j)| j < HOURS_PER_DAY)
            .collect();
        assert_eq!(sort24.len(), 132);
        // Keep, walking backwards, each comparator that touches a wire
        // outputs 11 and 12 still depend on.
        let mut live = [false; HOURS_PER_DAY];
        live[11] = true;
        live[12] = true;
        let mut kept = Vec::new();
        for &(i, j) in sort24.iter().rev() {
            if live[i] || live[j] {
                live[i] = true;
                live[j] = true;
                kept.push((i as u8, j as u8));
            }
        }
        kept.reverse();
        assert_eq!(kept, MEDIAN24_NETWORK);
    }

    /// 0-1 principle: a comparator network selects ranks 11 and 12 of
    /// every input iff it does so for every binary input. All 2^24 of
    /// them run bit-sliced, 64 per `u64` word: input `x = 64 * w + b`
    /// sits in bit `b` of word `w`, and wire `k` holds bit `k` of `x`.
    #[test]
    fn median_network_selects_ranks_11_and_12_on_every_binary_input() {
        const LOW: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        // at_least[t]: the bits b whose 6-bit index has ≥ t ones.
        let mut at_least = [0u64; 8];
        for b in 0..64u32 {
            for (t, mask) in at_least.iter_mut().enumerate() {
                if b.count_ones() as usize >= t {
                    *mask |= 1 << b;
                }
            }
        }
        // Wire p of a sorted output is 1 iff the input has ≥ 24 - p ones.
        let rank_mask = |p: usize, high_ones: usize| -> u64 {
            let need = (HOURS_PER_DAY - p).saturating_sub(high_ones);
            at_least.get(need).copied().unwrap_or(0)
        };
        for w in 0u64..1 << 18 {
            let mut wires = [0u64; HOURS_PER_DAY];
            for (k, wire) in wires.iter_mut().enumerate() {
                *wire = if k < 6 {
                    LOW[k]
                } else if w >> (k - 6) & 1 == 1 {
                    u64::MAX
                } else {
                    0
                };
            }
            for &(i, j) in &MEDIAN24_NETWORK {
                let (a, b) = (wires[i as usize], wires[j as usize]);
                wires[i as usize] = a & b;
                wires[j as usize] = a | b;
            }
            let high_ones = w.count_ones() as usize;
            assert_eq!(wires[11], rank_mask(11, high_ones), "rank 11, word {w}");
            assert_eq!(wires[12], rank_mask(12, high_ones), "rank 12, word {w}");
        }
    }

    /// Only full days free of NaN and −0.0 take the network; the
    /// property tests compare both paths with the reference.
    #[test]
    fn median_network_takes_only_clean_24_hour_days() {
        let hours: Vec<_> = (0..24).map(|h| sample(h as f64 - 3.0)).collect();
        assert!(medians_24h(&hours).is_some());
        assert!(medians_24h(&hours[..23]).is_none());
        for bad in [-0.0, f64::NAN] {
            let mut day = hours.clone();
            day[5].voice_users = bad;
            assert!(medians_24h(&day).is_none());
        }
    }

    #[test]
    fn field_roundtrip() {
        let day = CellDayMetrics::from_hourly(1, 0, &[sample(100.0)]).unwrap();
        assert_eq!(day.get(KpiField::DlVolume), 100.0);
        assert_eq!(day.get(KpiField::UlVolume), 10.0);
        assert_eq!(day.get(KpiField::TtiUtilization) as f32, 0.2);
        for (i, f) in KpiField::ALL.into_iter().enumerate() {
            assert!(!f.title().is_empty());
            assert_eq!(f.index(), i, "ALL order must match index()");
            let _ = day.get(f);
        }
    }

    #[test]
    fn daily_median_filters_cells() {
        let mut table = KpiTable::new();
        for (cell, dl) in [(1u32, 10.0), (2, 20.0), (3, 90.0)] {
            table.push(CellDayMetrics::from_hourly(cell, 0, &[sample(dl)]).unwrap());
        }
        let all = table.daily_median(KpiField::DlVolume, 2, |_| true);
        assert_eq!(all[0], Some(20.0));
        assert_eq!(all[1], None);
        let some = table.daily_median(KpiField::DlVolume, 2, |c| c != 3);
        assert_eq!(some[0], Some(15.0));
    }

    #[test]
    fn percentile_spans_distribution() {
        let mut table = KpiTable::new();
        for cell in 0..10u32 {
            table.push(
                CellDayMetrics::from_hourly(cell, 0, &[sample(cell as f64 * 10.0)]).unwrap(),
            );
        }
        let p90 = table.daily_percentile(KpiField::DlVolume, 90.0, 1, |_| true);
        assert_eq!(p90[0], Some(81.0));
    }

    #[test]
    fn columnar_matches_naive_and_survives_mutation() {
        let mut table = KpiTable::new();
        for day in 0..5u16 {
            for cell in 0..7u32 {
                table.push(
                    CellDayMetrics::from_hourly(
                        cell,
                        day,
                        &[sample((cell * 13 + day as u32 * 3) as f64)],
                    )
                    .unwrap(),
                );
            }
        }
        for field in KpiField::ALL {
            assert_eq!(
                table.daily_median(field, 6, |c| c % 2 == 0),
                table.daily_median_naive(field, 6, |c| c % 2 == 0),
            );
        }
        // Mutating the records invalidates the index.
        let before = table.daily_median(KpiField::VoiceDlLoss, 5, |_| true);
        for rec in table.records_mut() {
            rec.voice_dl_loss += 1.0;
        }
        let after = table.daily_median(KpiField::VoiceDlLoss, 5, |_| true);
        for (b, a) in before.iter().zip(&after) {
            assert!((a.unwrap() - b.unwrap() - 1.0).abs() < 1e-6);
        }
        assert_eq!(
            after,
            table.daily_median_naive(KpiField::VoiceDlLoss, 5, |_| true)
        );
    }

    #[test]
    fn multi_field_kernel_matches_single_field_queries() {
        let mut table = KpiTable::new();
        for day in 0..4u16 {
            for cell in 0..9u32 {
                table.push(
                    CellDayMetrics::from_hourly(
                        cell,
                        day,
                        &[sample((cell + 1) as f64 * (day + 1) as f64)],
                    )
                    .unwrap(),
                );
            }
        }
        let fields = [KpiField::DlVolume, KpiField::UlVolume, KpiField::VoiceUsers];
        let multi = table.daily_medians_multi(&fields, 5, |c| c != 4);
        for (fi, field) in fields.iter().enumerate() {
            assert_eq!(multi[fi], table.daily_median(*field, 5, |c| c != 4));
        }
    }

    #[test]
    fn serde_roundtrip_preserves_records() {
        let mut table = KpiTable::new();
        table.push(CellDayMetrics::from_hourly(3, 1, &[sample(42.0)]).unwrap());
        let _ = table.columns(); // a built index must not leak into the wire form
        let json = serde_json::to_string(&table).unwrap();
        let back: KpiTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, table);
        assert_eq!(back.records(), table.records());
    }

    #[test]
    fn columns_shape_matches_records() {
        let mut table = KpiTable::new();
        for (cell, day) in [(1u32, 0u16), (2, 0), (9, 2)] {
            table.push(CellDayMetrics::from_hourly(cell, day, &[sample(1.0)]).unwrap());
        }
        let cols = table.columns();
        assert_eq!(cols.num_days(), 3);
        assert_eq!(cols.day_len(0), 2);
        assert_eq!(cols.day_len(1), 0);
        assert_eq!(cols.day_len(2), 1);
        assert_eq!(cols.day_len(99), 0);
    }
}
