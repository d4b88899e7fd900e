//! Output checks. Each is computed apart from the code it checks: the
//! medians by a plain sort, the headline against the paper's signs,
//! the replay passes against an in-memory run and the files on disk.

use cellscope_core::{CellDayMetrics, KpiField};
use cellscope_scenario::figures::{FigureSet, Headline};
use cellscope_scenario::{dataset_divergence, ReplayReport, StudyDataset};
use cellscope_signaling::SignalingEvent;

/// The KPI fields whose national daily medians are recomputed.
pub const MEDIAN_FIELDS: [KpiField; 3] = [
    KpiField::DlVolume,
    KpiField::TtiUtilization,
    KpiField::VoiceVolume,
];

fn field_value(rec: &CellDayMetrics, field: KpiField) -> f64 {
    match field {
        KpiField::DlVolume => rec.dl_volume_mb as f64,
        KpiField::TtiUtilization => rec.tti_utilization as f64,
        KpiField::VoiceVolume => rec.voice_volume_mb as f64,
        other => panic!("no reference accessor for {other:?}"),
    }
}

/// Median by full sort; the midpoint of the two middle values when the
/// count is even.
fn sorted_median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        values[n / 2 - 1] * 0.5 + values[n / 2] * 0.5
    })
}

/// National daily medians of [`MEDIAN_FIELDS`] recomputed from the raw
/// records must equal `kernel` (`kernel[field][day]`, as
/// `KpiTable::daily_medians_multi` returns it) bit for bit.
pub fn check_daily_medians(
    records: &[CellDayMetrics],
    kernel: &[Vec<Option<f64>>],
    num_days: usize,
) -> Result<(), String> {
    if kernel.len() != MEDIAN_FIELDS.len() {
        return Err(format!(
            "kernel returned {} fields, expected {}",
            kernel.len(),
            MEDIAN_FIELDS.len()
        ));
    }
    let mut by_day: Vec<Vec<&CellDayMetrics>> = vec![Vec::new(); num_days];
    for rec in records {
        let day = rec.day as usize;
        if day >= num_days {
            return Err(format!(
                "KPI record on day {day} outside a {num_days}-day study"
            ));
        }
        by_day[day].push(rec);
    }
    for (fi, &field) in MEDIAN_FIELDS.iter().enumerate() {
        if kernel[fi].len() != num_days {
            return Err(format!(
                "{field:?}: kernel has {} days, expected {num_days}",
                kernel[fi].len()
            ));
        }
        for (day, recs) in by_day.iter().enumerate() {
            let mut values: Vec<f64> = recs.iter().map(|r| field_value(r, field)).collect();
            let want = sorted_median(&mut values);
            let got = kernel[fi][day];
            if want.map(f64::to_bits) != got.map(f64::to_bits) {
                return Err(format!(
                    "{field:?} day {day}: sorted median {want:?}, kernel {got:?}"
                ));
            }
        }
    }
    Ok(())
}

/// The headline keeps the paper's signs: a gyration trough of at least
/// 35%, a shallower entropy trough, less downlink volume in week 17, a
/// voice-volume peak of at least +100%, and less radio load in week 16.
pub fn check_headline(h: &Headline) -> Result<(), String> {
    let need = |name: &str, v: Option<f64>| v.ok_or_else(|| format!("headline {name} missing"));
    let gyration = need("gyration trough", h.gyration_trough_pct)?;
    let entropy = need("entropy trough", h.entropy_trough_pct)?;
    let dl17 = need("DL volume week 17", h.dl_volume_week17_pct)?;
    let voice = need("voice volume peak", h.voice_volume_peak_pct)?;
    let load16 = need("radio load week 16", h.radio_load_week16_pct)?;
    if gyration > -35.0 {
        return Err(format!("gyration trough {gyration:.1}% is not <= -35%"));
    }
    if entropy.abs() >= gyration.abs() {
        return Err(format!(
            "entropy trough {entropy:.1}% is not shallower than gyration {gyration:.1}%"
        ));
    }
    if dl17 >= 0.0 {
        return Err(format!("DL volume week 17 {dl17:.1}% is not negative"));
    }
    if voice < 100.0 {
        return Err(format!("voice volume peak {voice:.1}% is not >= +100%"));
    }
    if load16 >= 0.0 {
        return Err(format!("radio load week 16 {load16:.1}% is not negative"));
    }
    Ok(())
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of a study's outputs: every figure (as serialized), every KPI
/// record, the daily voice load and the population counts.
pub fn dataset_digest(ds: &StudyDataset, figures: &FigureSet) -> Result<u64, String> {
    let mut h = Fnv::new();
    let json = serde_json::to_string(figures).map_err(|e| format!("serializing figures: {e}"))?;
    h.bytes(json.as_bytes());
    for r in ds.kpi.records() {
        h.bytes(&r.cell.to_le_bytes());
        h.bytes(&r.day.to_le_bytes());
        for v in [
            r.dl_volume_mb,
            r.ul_volume_mb,
            r.active_dl_users,
            r.connected_users,
            r.user_dl_throughput_mbps,
            r.tti_utilization,
            r.voice_volume_mb,
            r.voice_users,
            r.voice_ul_loss,
            r.voice_dl_loss,
        ] {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    for v in &ds.national_voice_daily {
        h.bytes(&v.to_bits().to_le_bytes());
    }
    h.bytes(&(ds.study_population as u64).to_le_bytes());
    h.bytes(&(ds.homes_detected as u64).to_le_bytes());
    Ok(h.0)
}

/// A replayed dataset must equal the in-memory run bit for bit.
pub fn check_same_dataset(reference: &StudyDataset, replayed: &StudyDataset) -> Result<(), String> {
    match dataset_divergence(reference, replayed) {
        None => Ok(()),
        Some(field) => Err(format!(
            "replayed dataset differs from the in-memory run in `{field}`"
        )),
    }
}

/// A replay's accounting closes and saw no malformed record.
pub fn check_report(report: &ReplayReport) -> Result<(), String> {
    if !report.lines_balance() {
        return Err("replay line accounting does not balance".into());
    }
    if !report.events_balance() {
        return Err("replay event accounting does not balance".into());
    }
    let malformed = report.events.malformed + report.kpi.malformed + report.voice.malformed;
    if malformed != 0 || !report.malformed_at.is_empty() {
        return Err(format!("replay found {malformed} malformed records"));
    }
    if report.events.parsed == 0 || report.user_days == 0 {
        return Err("replay ingested nothing".into());
    }
    Ok(())
}

/// The event counters two replays of the same feeds must share.
fn event_counts(r: &ReplayReport) -> [u64; 8] {
    [
        r.events.lines_read,
        r.events.parsed,
        r.events_ingested,
        r.events_filtered,
        r.events_unknown_user,
        r.events_out_of_order,
        r.user_days,
        r.cell_days,
    ]
}

/// A `.csb` replay saw exactly the events the JSONL replay parsed, and
/// streamed exactly the bytes the `.csb` files hold on disk.
pub fn check_csb_pass(
    jsonl: &ReplayReport,
    csb: &ReplayReport,
    csb_bytes_on_disk: u64,
) -> Result<(), String> {
    if event_counts(jsonl) != event_counts(csb) {
        return Err(format!(
            "csb replay event counters {:?} differ from JSONL's {:?}",
            event_counts(csb),
            event_counts(jsonl)
        ));
    }
    if csb.bytes_streamed != csb_bytes_on_disk {
        return Err(format!(
            "csb replay streamed {} bytes, the .csb files hold {csb_bytes_on_disk}",
            csb.bytes_streamed
        ));
    }
    Ok(())
}

/// One day's events as parsed from JSONL equal the same day decoded
/// from `.csb`.
pub fn check_same_events(jsonl: &[SignalingEvent], csb: &[SignalingEvent]) -> Result<(), String> {
    if jsonl.len() != csb.len() {
        return Err(format!(
            "JSONL day has {} events, .csb day {}",
            jsonl.len(),
            csb.len()
        ));
    }
    if jsonl.is_empty() {
        return Err("the compared day has no events".into());
    }
    match jsonl.iter().zip(csb).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("event {i} differs between JSONL and .csb")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellscope_core::KpiTable;

    fn record(cell: u32, day: u16, v: f32) -> CellDayMetrics {
        CellDayMetrics {
            cell,
            day,
            dl_volume_mb: v,
            ul_volume_mb: v,
            active_dl_users: v,
            connected_users: v,
            user_dl_throughput_mbps: v,
            tti_utilization: v * 0.5,
            voice_volume_mb: v + 1.0,
            voice_users: v,
            voice_ul_loss: v,
            voice_dl_loss: v,
        }
    }

    fn table() -> KpiTable {
        let mut t = KpiTable::new();
        for (i, v) in [3.0, 1.0, 4.0, 1.5, 9.0, 2.5, 6.0].into_iter().enumerate() {
            t.push(record(i as u32, (i % 2) as u16, v));
        }
        t
    }

    #[test]
    fn medians_pass_on_the_kernel_and_fail_on_a_wrong_value() {
        let t = table();
        let kernel = t.daily_medians_multi(&MEDIAN_FIELDS, 3, |_| true);
        assert_eq!(check_daily_medians(t.records(), &kernel, 3), Ok(()));

        let mut wrong = kernel.clone();
        wrong[1][0] = wrong[1][0].map(|v| v + 1e-9);
        assert!(check_daily_medians(t.records(), &wrong, 3).is_err());

        let mut missing = kernel;
        missing[2][1] = None;
        assert!(check_daily_medians(t.records(), &missing, 3).is_err());
    }

    #[test]
    fn medians_fail_when_a_record_changes() {
        let t = table();
        let kernel = t.daily_medians_multi(&MEDIAN_FIELDS, 3, |_| true);
        let mut records = t.records().to_vec();
        records[0].dl_volume_mb += 100.0;
        assert!(check_daily_medians(&records, &kernel, 3).is_err());
    }

    #[test]
    fn sorted_median_of_even_count_is_the_midpoint() {
        assert_eq!(sorted_median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(sorted_median(&mut [5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(sorted_median(&mut []), None);
    }

    fn paper_headline() -> Headline {
        Headline {
            gyration_trough_pct: Some(-52.0),
            entropy_trough_pct: Some(-20.0),
            dl_volume_week17_pct: Some(-24.0),
            dl_volume_week10_pct: Some(8.0),
            radio_load_week16_pct: Some(-15.1),
            voice_volume_peak_pct: Some(150.0),
            voice_dl_loss_peak_pct: Some(120.0),
            london_absent_pct: Some(10.0),
            rat_4g_share: 0.75,
            home_validation_r2: Some(0.955),
            throughput_trough_pct: Some(-10.0),
            ul_volume_range_pct: (Some(-7.0), Some(1.5)),
        }
    }

    #[test]
    fn headline_passes_on_the_paper_and_fails_on_each_wrong_sign() {
        assert_eq!(check_headline(&paper_headline()), Ok(()));
        let wrongs: [fn(&mut Headline); 7] = [
            |h| h.gyration_trough_pct = Some(-30.0),
            |h| h.entropy_trough_pct = Some(-60.0),
            |h| h.dl_volume_week17_pct = Some(2.0),
            |h| h.voice_volume_peak_pct = Some(80.0),
            |h| h.radio_load_week16_pct = Some(0.5),
            |h| h.gyration_trough_pct = None,
            |h| h.radio_load_week16_pct = None,
        ];
        for wrong in wrongs {
            let mut h = paper_headline();
            wrong(&mut h);
            assert!(check_headline(&h).is_err(), "accepted {h:?}");
        }
    }

    fn report() -> ReplayReport {
        let mut r = ReplayReport::default();
        r.events.lines_read = 10;
        r.events.parsed = 10;
        r.events_ingested = 8;
        r.events_filtered = 2;
        r.user_days = 3;
        r.cell_days = 4;
        r.bytes_streamed = 1234;
        r
    }

    #[test]
    fn report_check_fails_on_leaks_and_malformed_records() {
        assert_eq!(check_report(&report()), Ok(()));
        let mut leak = report();
        leak.events.lines_read += 1;
        assert!(check_report(&leak).is_err());
        let mut lost = report();
        lost.events_ingested -= 1;
        assert!(check_report(&lost).is_err());
        let mut bad = report();
        bad.kpi.lines_read += 1;
        bad.kpi.malformed += 1;
        assert!(check_report(&bad).is_err());
        assert!(check_report(&ReplayReport::default()).is_err());
    }

    #[test]
    fn csb_pass_check_fails_on_other_events_or_bytes() {
        let jsonl = report();
        assert_eq!(check_csb_pass(&jsonl, &report(), 1234), Ok(()));
        assert!(check_csb_pass(&jsonl, &report(), 1235).is_err());
        let mut fewer = report();
        fewer.events.parsed -= 1;
        fewer.events_ingested -= 1;
        assert!(check_csb_pass(&jsonl, &fewer, 1234).is_err());
    }

    #[test]
    fn event_check_fails_on_a_changed_event() {
        use cellscope_radio::CellId;
        use cellscope_signaling::EventType;
        let ev = |minute| SignalingEvent {
            anon_id: 7,
            tac: cellscope_signaling::TacCode(35_000_000),
            mcc: 234,
            mnc: 15,
            cell: CellId(3),
            day: 1,
            minute,
            event: EventType::Attach,
            success: true,
        };
        let a = vec![ev(1), ev(5)];
        assert_eq!(check_same_events(&a, &a.clone()), Ok(()));
        assert!(check_same_events(&a, &[ev(1), ev(6)]).is_err());
        assert!(check_same_events(&a, &a[..1]).is_err());
        assert!(check_same_events(&[], &[]).is_err());
    }
}
