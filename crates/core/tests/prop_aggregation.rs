//! Property tests for the columnar KPI aggregation engine: the indexed
//! query paths must match the naive rescan implementations bit-for-bit
//! on arbitrary tables, and the selection-based percentile kernel must
//! match the clone-and-sort reference. The cell-day kernel
//! (`CellDayMetrics::from_hourly`, a median network for 24 samples and
//! selection otherwise) must match the reference median per field.

use cellscope_core::kpi_stats::{CellDayMetrics, HourlyKpiSample};
use cellscope_core::{stats, KpiField, KpiTable};
use cellscope_time::{IsoWeek, SimClock};
use proptest::prelude::*;

/// Bit-level comparison of optional doubles (distinguishes -0.0/0.0).
fn bits(v: &[Option<f64>]) -> Vec<Option<u64>> {
    v.iter().map(|o| o.map(f64::to_bits)).collect()
}

/// Build an arbitrary KPI table from generated (cell, day, seed) rows.
/// Every field gets a distinct value derived from the seed, including
/// negatives and exact ties across records.
fn table_from(rows: &[(u32, u16, f32)]) -> KpiTable {
    let mut table = KpiTable::new();
    for &(cell, day, v) in rows {
        table.push(CellDayMetrics {
            cell,
            day,
            dl_volume_mb: v,
            ul_volume_mb: v / 8.0,
            active_dl_users: (v % 7.0).abs(),
            connected_users: v.abs() + 1.0,
            user_dl_throughput_mbps: 10.0 - v / 3.0,
            tti_utilization: (v / 100.0).clamp(0.0, 1.0),
            voice_volume_mb: -v,
            voice_users: (v / 2.0).round(),
            voice_ul_loss: v * 1e-4,
            voice_dl_loss: v * -2e-4,
        });
    }
    table
}

fn rows_strategy(max_rows: usize) -> impl Strategy<Value = Vec<(u32, u16, f32)>> {
    prop::collection::vec(
        (0u32..12, 0u16..10, (-500.0f64..500.0).prop_map(|v| v as f32)),
        0..max_rows,
    )
}

/// The `kind` that [`hour_value`] turns into a NaN; `rows_of` never
/// draws it.
const NAN_KIND: u8 = 7;

/// One hourly value from a generated (kind, x) pair: ordinary values
/// (negatives included), heavy ties, signed zeros, infinities,
/// subnormals and ±`f64::MAX`. With `neg_zero` false every zero is
/// +0.0, which keeps a 24-sample day on the median network.
fn hour_value(kind: u8, x: f64, neg_zero: bool) -> f64 {
    let v = match kind {
        0 | 1 => x,
        2 => (x.abs() as u64 % 3) as f64,
        3 => 0.0f64.copysign(x),
        4 => f64::INFINITY.copysign(x),
        5 => f64::from_bits((x.abs() * 1e9) as u64 & ((1 << 52) - 1)).copysign(x),
        NAN_KIND => f64::NAN,
        _ => f64::MAX.copysign(x),
    };
    if v == 0.0 && !neg_zero {
        0.0
    } else {
        v
    }
}

fn hours_from(rows: &[Vec<(u8, f64)>], neg_zero: bool) -> Vec<HourlyKpiSample> {
    rows.iter()
        .map(|lanes| {
            let v: Vec<f64> = lanes
                .iter()
                .map(|&(k, x)| hour_value(k, x, neg_zero))
                .collect();
            HourlyKpiSample {
                dl_volume_mb: v[0],
                ul_volume_mb: v[1],
                active_dl_users: v[2],
                connected_users: v[3],
                user_dl_throughput_mbps: v[4],
                tti_utilization: v[5],
                voice_volume_mb: v[6],
                voice_users: v[7],
                voice_ul_loss: v[8],
                voice_dl_loss: v[9],
            }
        })
        .collect()
}

/// `from_hourly`'s record against per-field `percentile_ref` medians,
/// compared by bits.
fn assert_reference_medians(hours: &[HourlyKpiSample]) {
    let rec = CellDayMetrics::from_hourly(5, 9, hours).expect("non-empty day");
    assert_eq!((rec.cell, rec.day), (5, 9));
    for field in KpiField::ALL {
        let column: Vec<f64> = hours.iter().map(|h| h.get(field)).collect();
        let want = stats::percentile_ref(&column, 50.0).unwrap() as f32;
        assert_eq!(
            rec.get_f32(field).to_bits(),
            want.to_bits(),
            "{field:?} over {column:?}"
        );
    }
}

fn rows_of(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<(u8, f64)>>> {
    prop::collection::vec(prop::collection::vec((0u8..NAN_KIND, -1e3f64..1e3), 10), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Full 24-hour days (the median network) and every other length
    /// (selection) give the reference medians, on exotic values.
    #[test]
    fn from_hourly_matches_reference_medians(
        rows in rows_of(1..31),
        day in rows_of(24..25),
        neg_zero in 0u8..2,
    ) {
        assert_reference_medians(&hours_from(&rows, neg_zero == 1));
        assert_reference_medians(&hours_from(&day, neg_zero == 1));
    }

    /// One column of nothing but mixed ±0.0 and one of heavy ties.
    #[test]
    fn from_hourly_matches_reference_on_zeros_and_ties(
        day in rows_of(24..25),
        signs in prop::collection::vec(0u8..2, 24),
        ties in prop::collection::vec(0u8..3, 24),
    ) {
        let mut hours = hours_from(&day, false);
        for (h, (&s, &t)) in hours.iter_mut().zip(signs.iter().zip(&ties)) {
            h.voice_users = if s == 1 { -0.0 } else { 0.0 };
            h.tti_utilization = t as f64 * 0.25;
        }
        assert_reference_medians(&hours);
        assert_reference_medians(&hours[..23]);
    }

    /// A NaN anywhere panics, on the network's length and on others.
    #[test]
    fn from_hourly_panics_on_nan(
        rows in rows_of(1..31),
        day in rows_of(24..25),
        at in (0usize..1000, 0usize..10),
    ) {
        for mut rows in [rows, day] {
            let n = rows.len();
            rows[at.0 % n][at.1].0 = NAN_KIND;
            let hours = hours_from(&rows, false);
            let err = std::panic::catch_unwind(|| CellDayMetrics::from_hourly(0, 0, &hours))
                .expect_err("NaN must panic");
            let msg = err
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            prop_assert!(msg.contains("non-empty, NaN-free hourly samples"), "{}", msg);
        }
    }
}

proptest! {
    /// Selection-based percentile == sort-based reference, bit for bit.
    #[test]
    fn percentile_selection_matches_sort(
        values in prop::collection::vec(-1e6f64..1e6, 0..80),
        p in 0.0f64..100.0,
    ) {
        let sel = stats::percentile(&values, p);
        let srt = stats::percentile_ref(&values, p);
        prop_assert_eq!(sel.map(f64::to_bits), srt.map(f64::to_bits));
        // The in-place kernel agrees too.
        let mut scratch = values.clone();
        let unstable = stats::percentile_unstable(&mut scratch, p);
        prop_assert_eq!(unstable.map(f64::to_bits), srt.map(f64::to_bits));
    }

    /// Columnar daily_median == naive daily_median on arbitrary tables,
    /// for every field, with and without a cell filter.
    #[test]
    fn daily_median_columnar_matches_naive(
        rows in rows_strategy(60),
        num_days in 0usize..12,
        modulus in 1u32..5,
    ) {
        let table = table_from(&rows);
        for field in KpiField::ALL {
            let all_col = table.daily_median(field, num_days, |_| true);
            let all_ref = table.daily_median_naive(field, num_days, |_| true);
            prop_assert_eq!(bits(&all_col), bits(&all_ref));
            let filt_col = table.daily_median(field, num_days, |c| c % modulus == 0);
            let filt_ref = table.daily_median_naive(field, num_days, |c| c % modulus == 0);
            prop_assert_eq!(bits(&filt_col), bits(&filt_ref));
        }
    }

    /// Columnar daily_percentile == naive daily_percentile.
    #[test]
    fn daily_percentile_columnar_matches_naive(
        rows in rows_strategy(60),
        p in 0.0f64..100.0,
    ) {
        let table = table_from(&rows);
        for field in [KpiField::VoiceVolume, KpiField::DlVolume, KpiField::VoiceDlLoss] {
            let col = table.daily_percentile(field, p, 10, |c| c != 3);
            let naive = table.daily_percentile_naive(field, p, 10, |c| c != 3);
            prop_assert_eq!(bits(&col), bits(&naive));
        }
    }

    /// The one-pass multi-field kernel == per-field queries.
    #[test]
    fn multi_field_kernel_matches_per_field(rows in rows_strategy(60)) {
        let table = table_from(&rows);
        let fields = KpiField::ALL;
        let multi = table.daily_medians_multi(&fields, 10, |c| c % 2 == 1);
        for (fi, field) in fields.into_iter().enumerate() {
            let single = table.daily_median_naive(field, 10, |c| c % 2 == 1);
            prop_assert_eq!(bits(&multi[fi]), bits(&single));
        }
    }

    /// delta_series over the columnar path == a DeltaSeries built from
    /// the naive daily medians: same baselines, same daily and weekly
    /// delta views.
    #[test]
    fn delta_series_columnar_matches_naive(
        rows in prop::collection::vec(
            (0u32..12, 0u16..105, (-500.0f64..500.0).prop_map(|v| v as f32)),
            0..80,
        ),
    ) {
        let clock = SimClock::study();
        let week9 = IsoWeek { year: 2020, week: 9 };
        let table = table_from(&rows);
        let col = table.delta_series(KpiField::DlVolume, clock, week9, |c| c < 9);
        let naive_daily =
            table.daily_median_naive(KpiField::DlVolume, clock.num_days(), |c| c < 9);
        let naive = cellscope_core::DeltaSeries::new(clock, naive_daily, week9);
        prop_assert_eq!(
            col.baseline_mean().map(f64::to_bits),
            naive.baseline_mean().map(f64::to_bits)
        );
        prop_assert_eq!(
            col.baseline_median().map(f64::to_bits),
            naive.baseline_median().map(f64::to_bits)
        );
        prop_assert_eq!(bits(&col.daily_delta_pct()), bits(&naive.daily_delta_pct()));
        let wk_col: Vec<Option<u64>> = col
            .weekly_delta_pct()
            .into_iter()
            .map(|(_, d)| d.map(f64::to_bits))
            .collect();
        let wk_naive: Vec<Option<u64>> = naive
            .weekly_delta_pct()
            .into_iter()
            .map(|(_, d)| d.map(f64::to_bits))
            .collect();
        prop_assert_eq!(wk_col, wk_naive);
        for week in 5u8..=19 {
            prop_assert_eq!(
                col.week_delta_pct(week).map(f64::to_bits),
                naive.week_delta_pct(week).map(f64::to_bits),
                "week {}", week
            );
        }
    }

    /// Interleaving pushes, merges, and mutation never desyncs the
    /// index from the records.
    #[test]
    fn index_stays_consistent_under_mutation(
        first in rows_strategy(30),
        second in rows_strategy(30),
        bump in -10.0f64..10.0,
    ) {
        let mut table = table_from(&first);
        // Query (forces an index build), then merge more records.
        let _ = table.daily_median(KpiField::DlVolume, 10, |_| true);
        table.merge(table_from(&second));
        prop_assert_eq!(
            bits(&table.daily_median(KpiField::DlVolume, 10, |_| true)),
            bits(&table.daily_median_naive(KpiField::DlVolume, 10, |_| true))
        );
        // Mutate in place, then query again.
        let _ = table.columns();
        for rec in table.records_mut() {
            rec.ul_volume_mb += bump as f32;
        }
        prop_assert_eq!(
            bits(&table.daily_percentile(KpiField::UlVolume, 90.0, 10, |c| c != 1)),
            bits(&table.daily_percentile_naive(KpiField::UlVolume, 90.0, 10, |c| c != 1))
        );
    }
}
